"""A per-reference trace builder for tests.

The product builds traces from whole columns
(:meth:`repro.mem.trace.TraceBuilder.extend_arrays`).  The trace
oracles, the fuzzer and unit tests that spell out a trace one
reference at a time use :class:`ReferenceBuilder` instead: it collects
references and hands them to a ``TraceBuilder`` as one column when
:meth:`~ReferenceBuilder.build` is called, so the result is an
ordinary :class:`~repro.mem.trace.Trace`.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.mem.trace import READ, WRITE, Access, Trace, TraceBuilder


class ReferenceBuilder:
    """Append references one at a time, in ranges or as columns."""

    def __init__(self) -> None:
        self._addrs: List[int] = []
        self._kinds: List[int] = []
        # Sealed columns, in order, ahead of the pending lists above.
        self._columns: List[Tuple[np.ndarray, np.ndarray]] = []

    def read(self, addr: int) -> None:
        """Append a read of the double word at byte address ``addr``."""
        self._addrs.append(addr)
        self._kinds.append(READ)

    def write(self, addr: int) -> None:
        """Append a write of the double word at byte address ``addr``."""
        self._addrs.append(addr)
        self._kinds.append(WRITE)

    def read_range(self, base: int, count: int, stride: int = 8) -> None:
        """Append ``count`` sequential reads starting at ``base``."""
        self._addrs.extend(base + i * stride for i in range(count))
        self._kinds.extend([READ] * count)

    def write_range(self, base: int, count: int, stride: int = 8) -> None:
        """Append ``count`` sequential writes starting at ``base``."""
        self._addrs.extend(base + i * stride for i in range(count))
        self._kinds.extend([WRITE] * count)

    def extend(self, accesses: Iterable[Access]) -> None:
        for access in accesses:
            self._addrs.append(access.addr)
            self._kinds.append(access.kind)

    def extend_arrays(self, addrs: np.ndarray, kinds: np.ndarray) -> None:
        self._seal()
        self._columns.append((np.asarray(addrs), np.asarray(kinds)))

    def _seal(self) -> None:
        if self._addrs:
            self._columns.append((np.array(self._addrs), np.array(self._kinds)))
            self._addrs = []
            self._kinds = []

    def __len__(self) -> int:
        return sum(len(a) for a, _ in self._columns) + len(self._addrs)

    def build(self) -> Trace:
        self._seal()
        builder = TraceBuilder()
        for addrs, kinds in self._columns:
            builder.extend_arrays(addrs, kinds)
        return builder.build()


def access(memory, pid: int, addr: int, kind: int = READ) -> bool:
    """Run one reference from processor ``pid`` through
    ``memory.run_traces`` (a ``MultiprocessorMemory``; every other
    processor's trace is empty).  True on hit."""
    empty = Trace(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8))
    traces = [empty] * memory.num_processors
    traces[pid] = Trace(
        np.array([addr], dtype=np.int64), np.array([kind], dtype=np.uint8)
    )
    misses = memory.stats[pid].misses
    memory.run_traces(traces)
    return memory.stats[pid].misses == misses
