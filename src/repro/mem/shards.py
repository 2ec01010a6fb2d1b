"""Sharded, crash-safe trace directories (format version 3).

A *trace directory* (suffix ``.trd``) stores one logical reference
stream as a sequence of columnar ``.npz`` shards under a checksummed
``manifest.json``::

    lu-p0.trd/
        manifest.json        # totals, per-shard digests, CRC-framed
        shards.wal           # WAL1 journal: one shard-sealed record/shard
        shard-00000.npz      # addrs/kinds columns + CRC32, <= shard_refs
        shard-00001.npz
        ...

Each shard carries its own CRC32 over the canonical little-endian
array bytes (the same checksum discipline as single-file traces,
:mod:`repro.mem.tracefile`), and the manifest additionally records the
SHA-256 of every shard *file* plus a combined ``content_sha256`` over
the logical reference stream, so damage anywhere — a truncated shard,
a flipped bit, a missing file, a manifest that disagrees with the
directory — is detected before a single reference is replayed.

Why shards: ROADMAP item 2 ("1B references on a laptop").  The paper's
full-scale problems (10,000x10,000 LU, 64M-point FFT) emit reference
streams that cannot live in memory; a generator fills a
:class:`StreamingTraceBuilder` which spills one bounded chunk at a
time, and the simulators consume the resulting :class:`StreamingTrace`
chunk-wise — never holding more than one shard per producer or
consumer.  Crash safety rides on the shared atomic-write discipline of
:mod:`repro.runtime.iofault` (fault site ``"shard"``): a SIGKILL at any
instruction leaves either a fully valid shard/manifest or a staging
directory (suffix ``.trd.tmp``) that validation flags as an expected
crash leftover, never a silently short trace.

Simulator checkpoints (see :mod:`repro.mem.streamsim`) are one
``SIMCKPT1`` record in the shared frame of :mod:`repro.runtime.records`,
written atomically at shard boundaries (fault site ``"simckpt"``), so
a kill mid-simulation resumes from the last boundary and completes
with results byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.mem.trace import READ, WRITE, Access, Trace, TraceBuilder
from repro.runtime.errors import TraceFileWriteError
from repro.runtime.iofault import (
    atomic_write_bytes,
    atomic_write_text,
    fsync_directory,
    io_replace,
)
from repro.runtime.records import decode, frame

#: Bumped when the on-disk layout changes.  Versions 1-2 are the
#: single-file ``.npz`` formats of :mod:`repro.mem.tracefile`; version
#: 3 is the sharded directory layout.
SHARD_FORMAT_VERSION = 3

#: Filenames inside a trace directory.
MANIFEST_FILENAME = "manifest.json"
SHARDS_WAL_FILENAME = "shards.wal"

#: Directory suffixes: a complete trace directory vs. an in-progress
#: (or crash-abandoned) staging directory.
TRACE_DIR_SUFFIX = ".trd"
STAGING_SUFFIX = ".trd.tmp"

#: Injection-site tags for :mod:`repro.runtime.iofault`.
SHARD_SITE = "shard"
SIMCKPT_SITE = "simckpt"

#: Default spill threshold: references buffered per producer before a
#: shard is sealed (2**18 refs ~ 2.25 MiB of columns).
DEFAULT_SHARD_REFS = 1 << 18

#: Environment variables carrying the ambient stream configuration to
#: worker processes (propagated by ``worker_environment()``).
STREAM_DIR_ENV = "REPRO_STREAM_DIR"
SHARD_REFS_ENV = "REPRO_SHARD_REFS"

#: Frame magic of simulator checkpoint records.
SIMCKPT_MAGIC = "SIMCKPT1"


class TraceShardCorruptError(ValueError):
    """A trace directory failed an integrity check.

    Subclasses :class:`ValueError` for symmetry with
    :class:`repro.mem.tracefile.TraceFileCorruptError`.
    """


def shard_name(index: int) -> str:
    """Canonical filename of shard ``index``."""
    return f"shard-{index:05d}.npz"


def _canonical_columns(addrs: np.ndarray, kinds: np.ndarray) -> Tuple[bytes, bytes]:
    """Little-endian canonical bytes of both columns (checksum input)."""
    canonical_addrs = np.ascontiguousarray(addrs, dtype="<i8")
    canonical_kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
    return canonical_addrs.tobytes(), canonical_kinds.tobytes()


def _shard_crc(addrs: np.ndarray, kinds: np.ndarray) -> int:
    addr_bytes, kind_bytes = _canonical_columns(addrs, kinds)
    return zlib.crc32(kind_bytes, zlib.crc32(addr_bytes))


def _manifest_body_bytes(manifest: Dict[str, object]) -> bytes:
    """Canonical bytes of the manifest minus its own checksum field."""
    body = {k: v for k, v in manifest.items() if k != "checksum"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


class ShardWriter:
    """Seals bounded columnar chunks into CRC'd + hashed shard files.

    Writes into ``directory`` (the caller manages staging/rename) via
    :func:`~repro.runtime.iofault.atomic_write_bytes` at fault site
    ``"shard"``, journals one ``shard-sealed`` record per shard into
    ``shards.wal``, and accumulates the manifest.  A write failure
    (ENOSPC, EIO, a vanished directory) surfaces as the typed
    :class:`~repro.runtime.errors.TraceFileWriteError`.
    """

    def __init__(self, directory: Union[str, Path], shard_refs: int) -> None:
        if shard_refs < 1:
            raise ValueError(f"shard_refs must be >= 1 (got {shard_refs})")
        self.directory = Path(directory)
        self.shard_refs = shard_refs
        self.shards: List[Dict[str, object]] = []
        self.refs = 0
        self.reads = 0
        self.writes = 0
        # One running hash per column: concatenating each column across
        # shards reproduces the full column regardless of where the
        # shard boundaries fall, so the combined digest is a pure
        # content identity, independent of ``shard_refs``.
        self._addr_hash = hashlib.sha256()
        self._kind_hash = hashlib.sha256()
        self._journal = None
        self._finalized = False

    def _ensure_journal(self):
        if self._journal is None:
            from repro.runtime.journal import Journal

            self._journal = Journal(self.directory / SHARDS_WAL_FILENAME)
        return self._journal

    def write_shard(self, addrs: np.ndarray, kinds: np.ndarray) -> Dict[str, object]:
        """Seal one chunk as the next shard; returns its manifest entry."""
        if self._finalized:
            raise RuntimeError("ShardWriter already finalized")
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        if addrs.shape != kinds.shape:
            raise ValueError("addrs and kinds must have the same length")
        index = len(self.shards)
        name = shard_name(index)
        crc = _shard_crc(addrs, kinds)
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            addrs=addrs,
            kinds=kinds,
            version=np.int64(SHARD_FORMAT_VERSION),
            index=np.int64(index),
            checksum=np.int64(crc),
        )
        data = buffer.getvalue()
        try:
            atomic_write_bytes(self.directory / name, data, site=SHARD_SITE)
        except OSError as exc:
            raise TraceFileWriteError(
                f"cannot write trace shard {self.directory / name}: {exc}"
            ) from exc
        reads = int(np.count_nonzero(kinds == READ))
        entry: Dict[str, object] = {
            "index": index,
            "name": name,
            "refs": int(addrs.shape[0]),
            "reads": reads,
            "writes": int(addrs.shape[0]) - reads,
            "crc32": f"{crc:08x}",
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        self.shards.append(entry)
        self.refs += entry["refs"]
        self.reads += entry["reads"]
        self.writes += entry["writes"]
        addr_bytes, kind_bytes = _canonical_columns(addrs, kinds)
        self._addr_hash.update(addr_bytes)
        self._kind_hash.update(kind_bytes)
        try:
            self._ensure_journal().append(
                "shard-sealed",
                shard=index,
                refs=entry["refs"],
                crc32=entry["crc32"],
                sha256=entry["sha256"],
            )
        except OSError as exc:
            raise TraceFileWriteError(
                f"cannot journal shard seal in {self.directory}: {exc}"
            ) from exc
        from repro.obs import metrics as obs_metrics

        obs_metrics.inc("mem.stream.shards_sealed")
        return entry

    @property
    def content_sha256(self) -> str:
        return hashlib.sha256(
            self._addr_hash.digest() + self._kind_hash.digest()
        ).hexdigest()

    def finalize(
        self, metadata: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """Write the checksummed manifest; returns it."""
        if self._finalized:
            raise RuntimeError("ShardWriter already finalized")
        if self._journal is not None:
            self._journal.close()
        manifest: Dict[str, object] = {
            "format": SHARD_FORMAT_VERSION,
            "shard_refs": self.shard_refs,
            "refs": self.refs,
            "reads": self.reads,
            "writes": self.writes,
            "content_sha256": self.content_sha256,
            "shards": self.shards,
            "metadata": dict(metadata or {}),
        }
        manifest["checksum"] = f"{zlib.crc32(_manifest_body_bytes(manifest)):08x}"
        try:
            atomic_write_text(
                self.directory / MANIFEST_FILENAME,
                json.dumps(manifest, sort_keys=True, indent=1),
                site=SHARD_SITE,
            )
        except OSError as exc:
            raise TraceFileWriteError(
                f"cannot write trace manifest in {self.directory}: {exc}"
            ) from exc
        self._finalized = True
        return manifest


def read_manifest(directory: Union[str, Path]) -> Dict[str, object]:
    """Read and CRC-verify a trace directory's manifest.

    Raises:
        TraceShardCorruptError: Missing, undecodable, checksum-failing,
            or wrong-format manifest.
    """
    directory = Path(directory)
    path = directory / MANIFEST_FILENAME
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise TraceShardCorruptError(
            f"trace directory {directory} has no {MANIFEST_FILENAME}"
        )
    except OSError as exc:
        raise TraceShardCorruptError(
            f"trace directory {directory}: manifest unreadable: {exc}"
        )
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise TraceShardCorruptError(
            f"trace directory {directory}: manifest is not JSON: {exc}"
        )
    if not isinstance(manifest, dict):
        raise TraceShardCorruptError(
            f"trace directory {directory}: manifest is not a JSON object"
        )
    stored = manifest.get("checksum")
    actual = f"{zlib.crc32(_manifest_body_bytes(manifest)):08x}"
    if stored != actual:
        raise TraceShardCorruptError(
            f"trace directory {directory}: manifest failed its checksum "
            f"(stored {stored!r}, recomputed {actual!r})"
        )
    if manifest.get("format") != SHARD_FORMAT_VERSION:
        raise TraceShardCorruptError(
            f"trace directory {directory}: format {manifest.get('format')!r} "
            f"unsupported (expected {SHARD_FORMAT_VERSION})"
        )
    return manifest


def _decode_shard(
    data: bytes, entry: Dict[str, object], path: Path
) -> Tuple[np.ndarray, np.ndarray]:
    """Verify + decode one shard's file bytes into its columns."""
    if hashlib.sha256(data).hexdigest() != entry.get("sha256"):
        raise TraceShardCorruptError(
            f"shard {path} failed its SHA-256 (file damaged or replaced)"
        )
    try:
        with np.load(io.BytesIO(data)) as archive:
            addrs = archive["addrs"].astype(np.int64)
            kinds = archive["kinds"].astype(np.uint8)
            stored_crc = int(archive["checksum"])
    except Exception as exc:  # any decode failure is corruption
        raise TraceShardCorruptError(f"shard {path} is undecodable: {exc}")
    if _shard_crc(addrs, kinds) != stored_crc:
        raise TraceShardCorruptError(
            f"shard {path} failed its content CRC32"
        )
    if int(addrs.shape[0]) != int(entry.get("refs", -1)):
        raise TraceShardCorruptError(
            f"shard {path} holds {int(addrs.shape[0])} refs but the "
            f"manifest records {entry.get('refs')}"
        )
    return addrs, kinds


class StreamingTrace:
    """A sharded on-disk trace, consumed chunk-wise in bounded memory.

    Duck-type compatible with :class:`~repro.mem.trace.Trace` where
    that is possible without materializing (``__len__``, ``__iter__``,
    ``read_count``/``write_count``, ``footprint``); the random-access
    surface (``addrs``, ``kinds``, slicing) is served by a one-shot
    :meth:`load` fallback that materializes the whole trace — the
    simulators never touch it, but legacy callers keep working.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.manifest = read_manifest(self.directory)
        self._loaded: Optional[Trace] = None

    # -- bounded-memory surface -------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.manifest["shards"])

    @property
    def shard_refs(self) -> int:
        return int(self.manifest["shard_refs"])

    @property
    def content_sha256(self) -> str:
        return str(self.manifest["content_sha256"])

    @property
    def metadata(self) -> Dict[str, object]:
        return dict(self.manifest.get("metadata", {}))

    def __len__(self) -> int:
        return int(self.manifest["refs"])

    @property
    def read_count(self) -> int:
        return int(self.manifest["reads"])

    @property
    def write_count(self) -> int:
        return int(self.manifest["writes"])

    def iter_chunks(
        self, start_shard: int = 0
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(shard_index, addrs, kinds)`` with full verification.

        Holds exactly one decoded shard in memory at a time.

        Raises:
            TraceShardCorruptError: A shard is missing, fails its
                SHA-256/CRC, or disagrees with the manifest.
        """
        for entry in self.manifest["shards"][start_shard:]:
            path = self.directory / str(entry["name"])
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                raise TraceShardCorruptError(
                    f"shard {path} is missing from the trace directory"
                )
            except OSError as exc:
                raise TraceShardCorruptError(f"shard {path} unreadable: {exc}")
            addrs, kinds = _decode_shard(data, entry, path)
            yield int(entry["index"]), addrs, kinds

    def __iter__(self) -> Iterator[Access]:
        for _, addrs, kinds in self.iter_chunks():
            for addr, kind in zip(addrs.tolist(), kinds.tolist()):
                yield Access(addr, kind)

    def footprint(self, block_size: int = 8) -> int:
        """Distinct cache blocks touched, computed in one streaming pass."""
        if block_size <= 0 or (block_size & (block_size - 1)) != 0:
            raise ValueError("block_size must be a positive power of two")
        blocks: set = set()
        for _, addrs, _ in self.iter_chunks():
            blocks.update((addrs // block_size).tolist())
        return len(blocks)

    def footprint_bytes(self, block_size: int = 8) -> int:
        return self.footprint(block_size) * block_size

    # -- materializing compatibility fallback ------------------------

    def load(self) -> Trace:
        """Materialize the whole trace in memory (cached).

        This defeats the bounded-memory property — it exists so legacy
        random-access callers keep working against a streamed trace.
        """
        if self._loaded is None:
            addr_parts: List[np.ndarray] = []
            kind_parts: List[np.ndarray] = []
            for _, addrs, kinds in self.iter_chunks():
                addr_parts.append(addrs)
                kind_parts.append(kinds)
            if addr_parts:
                trace = Trace(
                    np.concatenate(addr_parts), np.concatenate(kind_parts)
                )
            else:
                trace = Trace(
                    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
                )
            self._loaded = trace
        return self._loaded

    @property
    def addrs(self) -> np.ndarray:
        return self.load().addrs

    @property
    def kinds(self) -> np.ndarray:
        return self.load().kinds

    def __getitem__(self, index: int) -> Access:
        return self.load()[index]

    def block_ids(self, block_size: int = 8) -> np.ndarray:
        return self.load().block_ids(block_size)

    def reads(self) -> Trace:
        return self.load().reads()

    def writes(self) -> Trace:
        return self.load().writes()

    def concat(self, other) -> Trace:
        other_trace = other.load() if isinstance(other, StreamingTrace) else other
        return self.load().concat(other_trace)


#: Process-wide sequence for unique staging directory names.
_BUILDER_SEQ = 0


class StreamingTraceBuilder:
    """Drop-in :class:`~repro.mem.trace.TraceBuilder` that spills shards.

    Buffers at most ``shard_refs`` references, sealing a shard whenever
    the buffer fills, and never holds more than one chunk in memory
    beyond the columns a caller hands to :meth:`extend_arrays`.  Single
    references collect in Python lists; whole columns are buffered as
    numpy arrays, and full shards are sealed as exact ``shard_refs``
    slices of them, so shard boundaries do not depend on how the stream
    was appended.  Shards are staged in a ``<name>.trd.tmp`` directory
    that is atomically renamed to ``<name>.trd`` by :meth:`build` — an
    interrupted build leaves only the clearly-marked staging directory.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        shard_refs: Optional[int] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        global _BUILDER_SEQ
        config = active_stream_config()
        if shard_refs is None:
            shard_refs = config.shard_refs if config else DEFAULT_SHARD_REFS
        if shard_refs < 1:
            raise ValueError(f"shard_refs must be >= 1 (got {shard_refs})")
        if directory is None:
            if config is None:
                raise ValueError(
                    "StreamingTraceBuilder needs a directory when no "
                    "ambient stream configuration is installed"
                )
            _BUILDER_SEQ += 1
            directory = config.directory / (
                f"trace-{os.getpid()}-{_BUILDER_SEQ:04d}{TRACE_DIR_SUFFIX}"
            )
        self.final_directory = Path(directory)
        if self.final_directory.suffix != TRACE_DIR_SUFFIX:
            self.final_directory = self.final_directory.with_name(
                self.final_directory.name + TRACE_DIR_SUFFIX
            )
        self.staging_directory = self.final_directory.with_name(
            self.final_directory.name + ".tmp"
        )
        self.staging_directory.mkdir(parents=True, exist_ok=True)
        self.shard_refs = shard_refs
        self.metadata = dict(metadata or {})
        self._writer = ShardWriter(self.staging_directory, shard_refs)
        # Pending single references, in order after the buffered columns.
        self._addrs: List[int] = []
        self._kinds: List[int] = []
        self._columns: List[Tuple[np.ndarray, np.ndarray]] = []
        self._held = 0  # references in ``_columns``
        self._built = False

    # -- TraceBuilder surface ----------------------------------------

    def read(self, addr: int) -> None:
        self._addrs.append(addr)
        self._kinds.append(READ)
        if self._held + len(self._addrs) >= self.shard_refs:
            self._spill()

    def write(self, addr: int) -> None:
        self._addrs.append(addr)
        self._kinds.append(WRITE)
        if self._held + len(self._addrs) >= self.shard_refs:
            self._spill()

    def read_range(self, base: int, count: int, stride: int = 8) -> None:
        self._addrs.extend(base + i * stride for i in range(count))
        self._kinds.extend([READ] * count)
        self._spill()

    def write_range(self, base: int, count: int, stride: int = 8) -> None:
        self._addrs.extend(base + i * stride for i in range(count))
        self._kinds.extend([WRITE] * count)
        self._spill()

    def extend(self, accesses: Iterable[Access]) -> None:
        for access in accesses:
            self._addrs.append(access.addr)
            self._kinds.append(access.kind)
            if self._held + len(self._addrs) >= self.shard_refs:
                self._spill()

    def extend_arrays(self, addrs: np.ndarray, kinds: np.ndarray) -> None:
        """Bulk-append parallel address and kind columns (kept by
        reference until sealed: do not modify them afterwards)."""
        addrs = np.asarray(addrs, dtype=np.int64)
        kinds = np.asarray(kinds, dtype=np.uint8)
        if addrs.shape != kinds.shape:
            raise ValueError("addrs and kinds must have the same length")
        self._seal_pending()
        self._columns.append((addrs, kinds))
        self._held += int(addrs.shape[0])
        self._spill()

    def __len__(self) -> int:
        return self._writer.refs + self._held + len(self._addrs)

    def _seal_pending(self) -> None:
        """Move pending single references into the buffered columns."""
        if self._addrs:
            self._columns.append(
                (
                    np.asarray(self._addrs, dtype=np.int64),
                    np.asarray(self._kinds, dtype=np.uint8),
                )
            )
            self._held += len(self._addrs)
            self._addrs = []
            self._kinds = []

    def _take_buffer(self) -> Tuple[np.ndarray, np.ndarray]:
        """Everything buffered, as one pair of columns; empties the buffer."""
        self._seal_pending()
        if len(self._columns) == 1:
            addrs, kinds = self._columns[0]
        else:
            addrs = np.concatenate(
                [a for a, _ in self._columns] or [np.zeros(0, dtype=np.int64)]
            )
            kinds = np.concatenate(
                [k for _, k in self._columns] or [np.zeros(0, dtype=np.uint8)]
            )
        self._columns = []
        self._held = 0
        return addrs, kinds

    def _spill(self) -> None:
        """Seal every full ``shard_refs`` slice of the buffer as a shard,
        keeping only a copy of the remainder."""
        if self._held + len(self._addrs) < self.shard_refs:
            return
        addrs, kinds = self._take_buffer()
        full = addrs.shape[0] - addrs.shape[0] % self.shard_refs
        for start in range(0, full, self.shard_refs):
            stop = start + self.shard_refs
            self._writer.write_shard(addrs[start:stop], kinds[start:stop])
        if full < addrs.shape[0]:
            self._columns.append((addrs[full:].copy(), kinds[full:].copy()))
            self._held = int(addrs.shape[0]) - full

    def build(self) -> StreamingTrace:
        """Seal the tail shard, finalize the manifest, publish the dir.

        The staging directory is renamed into place with ``os.replace``
        and the parent entry fsynced, mirroring the single-file
        atomic-save discipline.
        """
        if self._built:
            raise RuntimeError("StreamingTraceBuilder.build() called twice")
        from repro.obs import metrics as obs_metrics
        from repro.obs.console import debug

        self._spill()
        addrs, kinds = self._take_buffer()
        if addrs.shape[0]:
            self._writer.write_shard(addrs, kinds)
        total = self._writer.refs
        manifest = self._writer.finalize(self.metadata)
        try:
            io_replace(self.staging_directory, self.final_directory, SHARD_SITE)
            fsync_directory(self.final_directory.parent, SHARD_SITE)
        except OSError as exc:
            raise TraceFileWriteError(
                f"cannot publish trace directory {self.final_directory}: {exc}"
            ) from exc
        self._built = True
        debug(
            f"[trace] built {total:,} reference(s) in "
            f"{len(manifest['shards'])} shard(s) at {self.final_directory}"
        )
        obs_metrics.inc("mem.trace.refs_built", total)
        return StreamingTrace(self.final_directory)


# -- ambient stream configuration -----------------------------------------


@dataclass(frozen=True)
class StreamConfig:
    """Where streamed traces (and simulator checkpoints) live."""

    directory: Path
    shard_refs: int

    @property
    def checkpoint_directory(self) -> Path:
        return self.directory / "checkpoints"


_ACTIVE_CONFIG: Optional[StreamConfig] = None


def configure_streaming(
    directory: Union[str, Path],
    shard_refs: Optional[int] = None,
    export_env: bool = True,
) -> StreamConfig:
    """Install the ambient stream configuration for this process.

    With ``export_env`` (the default) the configuration is also placed
    in ``os.environ`` so worker processes — which get the supervisor's
    environment at each attempt — stream to the same directory.
    """
    global _ACTIVE_CONFIG
    config = StreamConfig(
        directory=Path(directory),
        shard_refs=int(shard_refs) if shard_refs else DEFAULT_SHARD_REFS,
    )
    if config.shard_refs < 1:
        raise ValueError(f"shard_refs must be >= 1 (got {config.shard_refs})")
    _ACTIVE_CONFIG = config
    if export_env:
        os.environ[STREAM_DIR_ENV] = str(config.directory)
        os.environ[SHARD_REFS_ENV] = str(config.shard_refs)
    return config


def clear_streaming(clear_env: bool = True) -> None:
    """Remove the ambient stream configuration (tests)."""
    global _ACTIVE_CONFIG
    _ACTIVE_CONFIG = None
    if clear_env:
        os.environ.pop(STREAM_DIR_ENV, None)
        os.environ.pop(SHARD_REFS_ENV, None)


def active_stream_config() -> Optional[StreamConfig]:
    """The installed configuration, else one read from the environment.

    Reading the environment lazily means worker processes need no
    explicit install: the first trace build in the worker finds the
    supervisor's exported configuration.
    """
    if _ACTIVE_CONFIG is not None:
        return _ACTIVE_CONFIG
    directory = os.environ.get(STREAM_DIR_ENV, "")
    if not directory:
        return None
    shard_refs = DEFAULT_SHARD_REFS
    raw = os.environ.get(SHARD_REFS_ENV, "")
    if raw:
        try:
            shard_refs = max(int(raw), 1)
        except ValueError:
            shard_refs = DEFAULT_SHARD_REFS
    return StreamConfig(directory=Path(directory), shard_refs=shard_refs)


def trace_builder(
    metadata: Optional[Dict[str, object]] = None,
) -> Union[TraceBuilder, StreamingTraceBuilder]:
    """The builder the ambient configuration calls for.

    Application generators call this instead of constructing
    :class:`~repro.mem.trace.TraceBuilder` directly: with streaming
    configured (``--stream`` / ``REPRO_STREAM_DIR``) they spill shards
    in bounded memory; without it they build in-memory traces exactly
    as before.
    """
    config = active_stream_config()
    if config is None:
        return TraceBuilder()
    return StreamingTraceBuilder(metadata=metadata)


# -- simulator checkpoints ------------------------------------------------


def save_sim_checkpoint(
    path: Union[str, Path], payload: Dict[str, object]
) -> None:
    """Atomically persist one simulator snapshot.

    One framed ``SIMCKPT1`` record, written with the shared atomic-write
    discipline at fault site ``"simckpt"`` — a crash during the write
    leaves either the previous snapshot or the new one, never a torn
    file.
    """
    atomic_write_bytes(
        Path(path), frame(SIMCKPT_MAGIC, payload), site=SIMCKPT_SITE
    )


def load_sim_checkpoint(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Read a snapshot; ``None`` on absence or *any* damage.

    Resume treats a damaged snapshot as "no snapshot" and restarts the
    simulation from shard zero — always safe, never wrong.
    """
    try:
        return decode(Path(path).read_bytes(), SIMCKPT_MAGIC)
    except (OSError, ValueError):
        return None
