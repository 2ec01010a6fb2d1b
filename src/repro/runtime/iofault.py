"""Fault-injectable I/O primitives and crash-consistent atomic writes.

Two jobs live here, deliberately in one dependency-free module:

1. **The durable write discipline.**  :func:`atomic_write_bytes` /
   :func:`atomic_write_text` are the one shared implementation of
   "replace a file so the change survives a crash": write to a
   temporary file in the destination directory, flush, ``fsync`` the
   *file*, ``os.replace`` into place, then ``fsync`` the *directory*
   entry.  The directory fsync is the half everyone forgets — on POSIX
   a rename is only durable once the directory's own metadata has
   reached disk, so an ``os.replace`` without it can be silently
   undone by power loss.  :mod:`repro.runtime.checkpoint`,
   :mod:`repro.runtime.journal` and :mod:`repro.mem.tracefile` all
   write through these helpers.

2. **The deterministic I/O fault injector.**  Every durability-relevant
   syscall in this repo goes through the ``io_*`` wrappers below, each
   tagged with a *site* name (``"journal"``, ``"checkpoint"``,
   ``"events"``, ``"tracefile"``).  An installed
   :class:`IOFaultInjector` counts matching calls and fires a
   configured fault at the Nth one: ``enospc`` and ``eio`` raise the
   real ``OSError``; ``short-write`` writes a torn prefix of the data
   and then raises ``ENOSPC``; ``fsync-fail`` fails the fsync; and
   ``kill`` SIGKILLs the calling process mid-write — the primitive the
   chaos harness (:mod:`repro.runtime.chaos`) uses to park a SIGKILL
   *inside* a journal or checkpoint write.  With no injector installed
   every wrapper is a plain syscall.

The injector can be installed programmatically (:func:`install`) or via
the ``REPRO_IOFAULT`` environment variable (testing/chaos only; see
:func:`install_from_env`), whose value is one or more comma-separated
``SITE:OP:KIND:NTH`` quads, e.g. ``journal:write:kill:3``.
"""

from __future__ import annotations

import contextlib
import errno as errno_module
import os
import signal
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: Environment variable consulted by :func:`install_from_env`.
IOFAULT_ENV = "REPRO_IOFAULT"

#: Recognized fault kinds.
FAULT_KINDS = ("enospc", "eio", "short-write", "fsync-fail", "kill")

#: Recognized operation names (``"*"`` matches any).
FAULT_OPS = ("write", "fsync", "replace", "*")


@dataclass
class IOFault:
    """One scheduled I/O fault.

    Attributes:
        site: Site name the fault applies to (``"journal"``,
            ``"checkpoint"``, ... or ``"*"`` for any site).
        op: Operation (``"write"``, ``"fsync"``, ``"replace"``, or
            ``"*"``).
        kind: One of :data:`FAULT_KINDS`.
        nth: Fire at the Nth matching call (1-based).
        repeat: Fire on every matching call from ``nth`` on, instead of
            exactly once (a persistently full disk rather than a
            transient hiccup).
    """

    site: str
    op: str
    kind: str
    nth: int = 1
    repeat: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choices: {FAULT_KINDS}"
            )
        if self.op not in FAULT_OPS:
            raise ValueError(
                f"unknown fault op {self.op!r}; choices: {FAULT_OPS}"
            )
        if self.nth < 1:
            raise ValueError(f"nth must be >= 1 (got {self.nth})")

    def matches(self, site: str, op: str) -> bool:
        return self.site in ("*", site) and self.op in ("*", op)

    @classmethod
    def parse(cls, text: str) -> "IOFault":
        """Parse one ``SITE:OP:KIND:NTH[:repeat]`` spec."""
        parts = text.split(":")
        if len(parts) < 3 or len(parts) > 5:
            raise ValueError(
                f"bad I/O fault spec {text!r}: expected SITE:OP:KIND[:NTH[:repeat]]"
            )
        site, op, kind = parts[0], parts[1], parts[2]
        nth = int(parts[3]) if len(parts) > 3 and parts[3] else 1
        repeat = len(parts) > 4 and parts[4] == "repeat"
        return cls(site=site, op=op, kind=kind, nth=nth, repeat=repeat)


class IOFaultInjector:
    """Counts tagged I/O calls and fires scheduled faults.

    Deterministic by construction: firing depends only on the sequence
    of matching calls, never on wall-clock time.  Thread-safe — the
    worker-pool supervisor threads share one injector.
    """

    def __init__(self, faults: Sequence[IOFault]) -> None:
        self.faults = list(faults)
        self._fault_counts = [0] * len(self.faults)
        self._fired: List[Tuple[str, str, str, int]] = []
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, text: str) -> "IOFaultInjector":
        """Build an injector from a comma-separated spec string."""
        return cls([IOFault.parse(part) for part in text.split(",") if part])

    @property
    def fired(self) -> List[Tuple[str, str, str, int]]:
        """``(site, op, kind, call_index)`` for every fault fired."""
        with self._lock:
            return list(self._fired)

    def check(self, site: str, op: str) -> Optional[IOFault]:
        """Record one call at ``(site, op)``; return the fault to fire.

        Each fault counts the calls its own pattern matches, so two
        faults with overlapping patterns fire independently.  The
        caller applies the fault's effect (so ``short-write`` can tear
        the data it alone holds).  ``kill`` is applied here — it never
        returns.
        """
        due: Optional[IOFault] = None
        with self._lock:
            for index, fault in enumerate(self.faults):
                if not fault.matches(site, op):
                    continue
                self._fault_counts[index] += 1
                count = self._fault_counts[index]
                if due is None and (
                    count == fault.nth or (fault.repeat and count > fault.nth)
                ):
                    due = fault
                    self._fired.append((site, op, fault.kind, count))
            if due is None:
                return None
        if due.kind == "kill":
            # Simulate a supervisor SIGKILL landing inside the write.
            os.kill(os.getpid(), signal.SIGKILL)
        return due


#: The ambient injector (None = all wrappers are plain syscalls).
_ACTIVE: Optional[IOFaultInjector] = None


def active_injector() -> Optional[IOFaultInjector]:
    return _ACTIVE


@contextlib.contextmanager
def install(injector: Optional[IOFaultInjector]) -> Iterator[Optional[IOFaultInjector]]:
    """Install ``injector`` as the ambient fault source for a scope."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous


def install_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[IOFaultInjector]:
    """Install an injector described by ``REPRO_IOFAULT`` (if set).

    Unlike :func:`install` this is *not* scoped — it arms the injector
    for the life of the process, which is exactly what the chaos
    harness wants when it plants a ``kill`` inside a child supervisor.
    Returns the installed injector, or None when the variable is unset.
    """
    global _ACTIVE
    value = (environ if environ is not None else os.environ).get(IOFAULT_ENV, "")
    if not value:
        return None
    injector = IOFaultInjector.parse(value)
    _ACTIVE = injector
    return injector


def _raise_io_error(err: int, site: str, op: str) -> None:
    raise OSError(
        err,
        f"{os.strerror(err)} [injected at {site}:{op}]",
    )


def _consult(site: str, op: str) -> Optional[IOFault]:
    if _ACTIVE is None:
        return None
    fault = _ACTIVE.check(site, op)
    if fault is None:
        return None
    if fault.kind == "enospc":
        _raise_io_error(errno_module.ENOSPC, site, op)
    if fault.kind in ("eio", "fsync-fail"):
        _raise_io_error(errno_module.EIO, site, op)
    return fault  # short-write: caller applies the tear


# -- tagged syscall wrappers ----------------------------------------------


def check_io(site: str, op: str) -> None:
    """Explicit injection point for writes the wrappers cannot carry.

    Callers that hand their bytes to a third-party writer (numpy's
    ``savez``) call this where the write begins, so ``enospc`` /
    ``eio`` / ``kill`` faults can land deterministically inside the
    operation.  ``short-write`` degrades to ``enospc`` here — there is
    no buffer to tear.
    """
    fault = _consult(site, op)
    if fault is not None and fault.kind == "short-write":
        _raise_io_error(errno_module.ENOSPC, site, op)


def io_write(fd: int, data: bytes, site: str) -> int:
    """``os.write`` with full-write semantics, tagged for injection."""
    fault = _consult(site, "write")
    if fault is not None and fault.kind == "short-write":
        torn = data[: max(1, len(data) // 2)]
        written = 0
        while written < len(torn):
            written += os.write(fd, torn[written:])
        _raise_io_error(errno_module.ENOSPC, site, "write")
    written = 0
    view = memoryview(data)
    while written < len(view):
        written += os.write(fd, view[written:])
    return written


def io_fsync(fd: int, site: str) -> None:
    """``os.fsync``, tagged for injection."""
    _consult(site, "fsync")
    os.fsync(fd)


def io_replace(src: Union[str, Path], dst: Union[str, Path], site: str) -> None:
    """``os.replace``, tagged for injection."""
    _consult(site, "replace")
    os.replace(src, dst)


def fsync_directory(path: Union[str, Path], site: str = "dir") -> None:
    """fsync a directory so a rename inside it is durable.

    Best-effort: platforms or filesystems that refuse to fsync a
    directory fd (some network mounts, non-POSIX systems) degrade to a
    no-op — the rename is still atomic, just not power-loss-durable.
    Injected fsync faults do propagate (the whole point of testing
    them).
    """
    _consult(site, "fsync")
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


# -- the shared atomic write ----------------------------------------------


def atomic_write_bytes(
    path: Union[str, Path],
    data: bytes,
    site: str = "atomic",
    durable: bool = True,
) -> None:
    """Atomically (and, by default, durably) replace ``path`` with ``data``.

    Stages the bytes in a temporary file in the destination directory,
    fsyncs the file, renames it into place, and fsyncs the directory
    entry, so the replacement survives both a crash of this process and
    a power loss immediately after return.  On any failure the
    temporary file is unlinked — a failed write never leaves ``*.tmp``
    litter — and the previous contents of ``path`` are untouched.

    Args:
        path: Destination file.
        data: Full new contents.
        site: Injection-site tag for :class:`IOFaultInjector`.
        durable: When False, skip both fsyncs (callers that only need
            atomicity, e.g. the ``metrics.json`` snapshot).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        try:
            io_write(fd, data, site)
            if durable:
                io_fsync(fd, site)
        finally:
            os.close(fd)
        io_replace(tmp_name, path, site)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if durable:
        fsync_directory(path.parent, site)


def atomic_write_text(
    path: Union[str, Path],
    text: str,
    site: str = "atomic",
    durable: bool = True,
) -> None:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    atomic_write_bytes(path, text.encode("utf-8"), site=site, durable=durable)
