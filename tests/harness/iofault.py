"""The deterministic I/O fault injector.

Every durability-relevant syscall in :mod:`repro.runtime.records`
carries a site tag (``"journal"``, ``"checkpoint"``, ``"events"``,
``"tracefile"``, ``"shard"``, ``"simckpt"``, ...) and first calls
:data:`repro.runtime.records.io_hook`.  An installed
:class:`IOFaultInjector` counts the calls matching each of its faults
and fires the fault at the Nth one: ``enospc`` and ``eio`` raise the
real ``OSError``; ``short-write`` writes a torn prefix of the data and
then raises ``ENOSPC``; ``fsync-fail`` fails the fsync; and ``kill``
SIGKILLs the calling process mid-write, which is how the chaos gate
parks a SIGKILL inside a journal or checkpoint write.

A fault spec is ``SITE:OP:KIND[:NTH[:repeat]]``; ``REPRO_IOFAULT``
holds comma-separated specs for :func:`install_from_env`, which only
``python -m tests.harness.cli`` calls.  The product never reads it.
"""

from __future__ import annotations

import contextlib
import errno
import os
import signal
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runtime import records

#: Environment variable consulted by :func:`install_from_env`.
IOFAULT_ENV = "REPRO_IOFAULT"

FAULT_KINDS = ("enospc", "eio", "short-write", "fsync-fail", "kill")
FAULT_OPS = ("write", "fsync", "replace", "*")


@dataclass
class IOFault:
    """One scheduled fault: fire at the ``nth`` call matching
    ``(site, op)`` (``"*"`` matches any), or at every one from the
    ``nth`` on when ``repeat`` (a persistently full disk)."""

    site: str
    op: str
    kind: str
    nth: int = 1
    repeat: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choices: {FAULT_KINDS}")
        if self.op not in FAULT_OPS:
            raise ValueError(f"unknown fault op {self.op!r}; choices: {FAULT_OPS}")
        if self.nth < 1:
            raise ValueError(f"nth must be >= 1 (got {self.nth})")

    def matches(self, site: str, op: str) -> bool:
        return self.site in ("*", site) and self.op in ("*", op)

    @classmethod
    def parse(cls, text: str) -> "IOFault":
        parts = text.split(":")
        if not 3 <= len(parts) <= 5:
            raise ValueError(
                f"bad I/O fault spec {text!r}: expected SITE:OP:KIND[:NTH[:repeat]]"
            )
        nth = int(parts[3]) if len(parts) > 3 and parts[3] else 1
        repeat = len(parts) > 4 and parts[4] == "repeat"
        return cls(parts[0], parts[1], parts[2], nth=nth, repeat=repeat)


class IOFaultInjector:
    """Counts tagged I/O calls and fires scheduled faults.

    Firing depends only on the sequence of matching calls, never on the
    clock.  Each fault counts its own matches, so overlapping patterns
    fire independently.  Thread-safe: pool threads share one injector.
    """

    def __init__(self, faults: Sequence[IOFault]) -> None:
        self.faults = list(faults)
        self._counts = [0] * len(self.faults)
        self._fired: List[Tuple[str, str, str, int]] = []
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, text: str) -> "IOFaultInjector":
        return cls([IOFault.parse(part) for part in text.split(",") if part])

    @property
    def fired(self) -> List[Tuple[str, str, str, int]]:
        """``(site, op, kind, call_index)`` for every fault fired."""
        with self._lock:
            return list(self._fired)

    def hook(self, site: str, op: str, fd: Optional[int], data: Optional[bytes]) -> None:
        """The :data:`repro.runtime.records.io_hook` callable."""
        due: Optional[IOFault] = None
        with self._lock:
            for index, fault in enumerate(self.faults):
                if not fault.matches(site, op):
                    continue
                self._counts[index] += 1
                count = self._counts[index]
                if due is None and (
                    count == fault.nth or (fault.repeat and count > fault.nth)
                ):
                    due = fault
                    self._fired.append((site, op, fault.kind, count))
        if due is None:
            return
        if due.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        err = errno.ENOSPC if due.kind in ("enospc", "short-write") else errno.EIO
        if due.kind == "short-write" and fd is not None and data:
            torn = data[: max(1, len(data) // 2)]
            written = 0
            while written < len(torn):
                written += os.write(fd, torn[written:])
        raise OSError(err, f"{os.strerror(err)} [injected at {site}:{op}]")


def active_injector() -> Optional[IOFaultInjector]:
    return getattr(records.io_hook, "__self__", None)


@contextlib.contextmanager
def install(injector: Optional[IOFaultInjector]) -> Iterator[Optional[IOFaultInjector]]:
    """Install ``injector`` as the ambient fault source for a scope."""
    previous = records.io_hook
    records.io_hook = injector.hook if injector is not None else None
    try:
        yield injector
    finally:
        records.io_hook = previous


def install_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[IOFaultInjector]:
    """Arm the injector ``REPRO_IOFAULT`` describes, for the life of the
    process (unscoped: the chaos gate plants a ``kill`` in a whole CLI
    run).  Returns it, or None when the variable is unset."""
    value = (os.environ if environ is None else environ).get(IOFAULT_ENV, "")
    if not value:
        return None
    injector = IOFaultInjector.parse(value)
    records.io_hook = injector.hook
    return injector
