"""Trace persistence.

Application traces can take minutes to generate (the Barnes-Hut force
phase at Figure-6 scale emits millions of references); saving them lets
experiments and notebooks iterate on the *analysis* without re-running
the application.  Traces are stored as compressed ``.npz`` archives
with a format version, CRC32 content checksums, and optional metadata.

Integrity guarantees (format version 2):

- **Durable atomic save** — the archive is written to a temporary file
  in the destination directory, fsynced, moved into place with
  ``os.replace``, and the directory entry fsynced (the shared
  crash-consistency discipline of :mod:`repro.runtime.records`), so an
  interrupted :func:`save_trace` never leaves a truncated ``.npz``
  where a valid one was expected — and a completed one survives
  power-loss/kill semantics, not just process death.
- **Typed write failures** — an I/O failure during the save (ENOSPC,
  EIO) unlinks the temporary file and raises
  :class:`~repro.runtime.errors.TraceFileWriteError`; a failed save
  never leaves ``*.tmp`` litter for ``validate`` to trip over.
- **Checksummed load** — the stored CRC32 over the canonicalized
  ``addrs``/``kinds`` arrays (and a separate one over the metadata) is
  verified on load; any mismatch, missing field, or undecodable
  archive raises :class:`TraceFileCorruptError` instead of returning
  silently wrong data.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.mem.trace import Trace
from repro.runtime.errors import TraceFileWriteError
from repro.runtime.records import check_io, fsync_directory, io_fsync, io_replace

#: Bumped when the on-disk layout changes.  Version 2 added the CRC32
#: content checksums; version-1 archives (no checksum) are rejected.
FORMAT_VERSION = 2


class TraceFileCorruptError(ValueError):
    """A trace archive failed its integrity check.

    Subclasses :class:`ValueError` so callers that guarded the old
    format errors keep working.
    """


def _array_checksum(addrs: np.ndarray, kinds: np.ndarray) -> int:
    """CRC32 over the canonical little-endian bytes of both arrays."""
    canonical_addrs = np.ascontiguousarray(addrs, dtype="<i8")
    canonical_kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
    crc = zlib.crc32(canonical_addrs.tobytes())
    return zlib.crc32(canonical_kinds.tobytes(), crc)


def trace_header(trace: Trace) -> Dict[str, int]:
    """The reference-count header (``refs``/``reads``/``writes``) for
    ``trace``, for embedding in :func:`save_trace` metadata so artifact
    validation can cross-check the header against the stored arrays."""
    reads = int((np.asarray(trace.kinds) == 0).sum())
    return {
        "refs": len(trace.addrs),
        "reads": reads,
        "writes": len(trace.addrs) - reads,
    }


def save_trace(
    path: Union[str, Path],
    trace: Trace,
    metadata: Optional[Dict[str, object]] = None,
) -> None:
    """Write ``trace`` to ``path`` (.npz, compressed, atomic).

    The archive is staged in a temporary file and renamed into place:
    an interruption leaves either the previous file or nothing, never
    a half-written archive.

    Args:
        path: Destination file (suffix .npz recommended).
        trace: The trace to persist.
        metadata: JSON-serializable description (problem parameters,
            generator name, ...), stored alongside the arrays and
            round-tripped verbatim by :func:`load_metadata`.  Include
            :func:`trace_header` in it to let artifact validation
            cross-check reference counts against the arrays.
    """
    path = Path(path)
    payload = json.dumps(metadata or {}).encode("utf-8")
    parent = path.parent if str(path.parent) else Path(".")
    tmp_name = None
    try:
        # mkstemp lives inside the try so that a missing parent
        # directory takes the same typed-error path as ENOSPC/EIO.
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{path.name}.", suffix=".tmp", dir=parent
        )
        with os.fdopen(fd, "wb") as handle:
            # The archive bytes go through numpy's own writer; give the
            # fault injector its deterministic hook here so
            # ENOSPC/EIO/kill can land "inside" the trace write.
            check_io("tracefile", "write")
            np.savez_compressed(
                handle,
                addrs=trace.addrs,
                kinds=trace.kinds,
                version=np.int64(FORMAT_VERSION),
                checksum=np.int64(_array_checksum(trace.addrs, trace.kinds)),
                meta_checksum=np.int64(zlib.crc32(payload)),
                metadata=np.frombuffer(payload, dtype=np.uint8),
            )
            handle.flush()
            io_fsync(handle.fileno(), "tracefile")
        io_replace(tmp_name, path, "tracefile")
    except BaseException as exc:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise TraceFileWriteError(
                f"cannot save trace to {path}: {exc}"
            ) from exc
        raise
    fsync_directory(parent, "tracefile")


def _open_archive(path: Path):
    """np.load with decode failures mapped to TraceFileCorruptError."""
    try:
        return np.load(path)
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError, EOFError, ValueError) as exc:
        raise TraceFileCorruptError(
            f"trace file {path} is not a readable archive: {exc}"
        )


def _check_version(archive, path: Path) -> None:
    if "version" not in archive.files:
        raise TraceFileCorruptError(f"trace file {path} has no format version")
    version = _scalar(archive, "version", path)
    if version != FORMAT_VERSION:
        raise ValueError(
            f"trace file format {version} unsupported (expected {FORMAT_VERSION})"
        )


def _field(archive, name: str, path: Path) -> np.ndarray:
    """One archive member, with *every* decode failure mapped to
    :class:`TraceFileCorruptError`.

    Member access is lazy in ``.npz`` archives — the zip entry is only
    decompressed here, so this is where corruption actually surfaces
    (fuzzing found ``BadZipFile``, ``zlib.error``, and
    ``NotImplementedError`` for mangled compression-method fields all
    escaping from what looked like a plain dictionary lookup).
    """
    if name not in archive.files:
        raise TraceFileCorruptError(f"trace file {path} is missing {name!r}")
    try:
        return archive[name]
    except (
        zipfile.BadZipFile,
        OSError,
        EOFError,
        zlib.error,
        ValueError,
        NotImplementedError,
    ) as exc:
        raise TraceFileCorruptError(
            f"trace file {path} field {name!r} is undecodable: {exc}"
        )


def _scalar(archive, name: str, path: Path) -> int:
    """An integer scalar member; shape/dtype damage is corruption."""
    value = _field(archive, name, path)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceFileCorruptError(
            f"trace file {path} field {name!r} is not an integer scalar: {exc}"
        )


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Raises:
        TraceFileCorruptError: When the archive is truncated,
            undecodable, missing fields, or fails its checksum.
        ValueError: When the archive is valid but of an unsupported
            format version.
    """
    path = Path(path)
    with _open_archive(path) as archive:
        _check_version(archive, path)
        try:
            addrs = _field(archive, "addrs", path).astype(np.int64)
            kinds = _field(archive, "kinds", path).astype(np.uint8)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, TraceFileCorruptError):
                raise
            raise TraceFileCorruptError(
                f"trace file {path} arrays are undecodable: {exc}"
            )
        stored = _scalar(archive, "checksum", path)
        actual = _array_checksum(addrs, kinds)
        if stored != actual:
            raise TraceFileCorruptError(
                f"trace file {path} failed its checksum "
                f"(stored {stored:#010x}, recomputed {actual:#010x})"
            )
        return Trace(addrs, kinds)


def load_metadata(path: Union[str, Path]) -> Dict[str, object]:
    """Read only the metadata of a saved trace (checksum-verified)."""
    path = Path(path)
    with _open_archive(path) as archive:
        _check_version(archive, path)
        raw = bytes(_field(archive, "metadata", path).tobytes())
        stored = _scalar(archive, "meta_checksum", path)
        if stored != zlib.crc32(raw):
            raise TraceFileCorruptError(
                f"trace file {path} metadata failed its checksum"
            )
        try:
            return json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceFileCorruptError(
                f"trace file {path} metadata is undecodable: {exc}"
            )
