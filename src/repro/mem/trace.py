"""Memory reference traces.

A trace is a sequence of :class:`Access` records, one per memory
reference issued by one logical processor.  Applications in
:mod:`repro.apps` generate traces at *double-word* granularity (8-byte
addresses), mirroring the paper's double-word miss accounting.

For performance, a :class:`Trace` stores its accesses in parallel numpy
arrays rather than a list of objects; :class:`Access` is only the
record type used at the edges of the API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.budget import Budget, active_budget

#: Access kinds.  Stored in a uint8 column of the trace.
READ = 0
WRITE = 1


@dataclass(frozen=True)
class Access:
    """One memory reference.

    Attributes:
        addr: Byte address of the reference.
        kind: ``READ`` or ``WRITE``.
    """

    addr: int
    kind: int = READ

    @property
    def is_read(self) -> bool:
        return self.kind == READ

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE


class TraceBuilder:
    """Build a :class:`Trace` from whole address/kind columns.

    Application trace generators append each phase's references with
    :meth:`extend_arrays` and then call :meth:`build`.
    """

    def __init__(self) -> None:
        self._columns: List[Tuple[np.ndarray, np.ndarray]] = []

    def extend_arrays(self, addrs: np.ndarray, kinds: np.ndarray) -> None:
        """Bulk-append parallel address and kind columns (kept by
        reference: do not modify them afterwards)."""
        addrs = np.asarray(addrs, dtype=np.int64)
        kinds = np.asarray(kinds, dtype=np.uint8)
        if addrs.shape != kinds.shape:
            raise ValueError("addrs and kinds must have the same length")
        self._columns.append((addrs, kinds))

    def __len__(self) -> int:
        return sum(int(a.shape[0]) for a, _ in self._columns)

    def build(self) -> "Trace":
        from repro.obs import metrics as obs_metrics

        if len(self._columns) == 1:
            addrs, kinds = self._columns[0]
        else:
            addrs = np.concatenate(
                [a for a, _ in self._columns] or [np.zeros(0, dtype=np.int64)]
            )
            kinds = np.concatenate(
                [k for _, k in self._columns] or [np.zeros(0, dtype=np.uint8)]
            )
        obs_metrics.inc("mem.trace.refs_built", len(addrs))
        return Trace(addrs, kinds)


class Trace:
    """An immutable sequence of memory references for one processor."""

    def __init__(self, addrs: np.ndarray, kinds: np.ndarray) -> None:
        if addrs.shape != kinds.shape:
            raise ValueError("addrs and kinds must have the same length")
        self.addrs = addrs
        self.kinds = kinds

    @classmethod
    def from_accesses(cls, accesses: Iterable[Access]) -> "Trace":
        accesses = list(accesses)
        return cls(
            np.array([access.addr for access in accesses], dtype=np.int64),
            np.array([access.kind for access in accesses], dtype=np.uint8),
        )

    @classmethod
    def from_addresses(cls, addrs: Iterable[int], kind: int = READ) -> "Trace":
        arr = np.fromiter(addrs, dtype=np.int64)
        kinds = np.full(arr.shape, kind, dtype=np.uint8)
        return cls(arr, kinds)

    def __len__(self) -> int:
        return int(self.addrs.shape[0])

    def __iter__(self) -> Iterator[Access]:
        for addr, kind in zip(self.addrs, self.kinds):
            yield Access(int(addr), int(kind))

    def __getitem__(self, index: int) -> Access:
        return Access(int(self.addrs[index]), int(self.kinds[index]))

    def block_ids(self, block_size: int = 8) -> np.ndarray:
        """Return the cache-block index of every reference."""
        if block_size <= 0 or (block_size & (block_size - 1)) != 0:
            raise ValueError("block_size must be a positive power of two")
        return self.addrs // block_size

    def reads(self) -> "Trace":
        """The sub-trace containing only read references."""
        mask = self.kinds == READ
        return Trace(self.addrs[mask], self.kinds[mask])

    def writes(self) -> "Trace":
        """The sub-trace containing only write references."""
        mask = self.kinds == WRITE
        return Trace(self.addrs[mask], self.kinds[mask])

    @property
    def read_count(self) -> int:
        return int(np.count_nonzero(self.kinds == READ))

    @property
    def write_count(self) -> int:
        return int(np.count_nonzero(self.kinds == WRITE))

    def footprint(self, block_size: int = 8) -> int:
        """Number of distinct cache blocks touched by the trace."""
        bids = self.block_ids(block_size)
        if bids.size == 0:
            return 0
        lo = int(bids.min())
        span = int(bids.max()) - lo + 1
        # Dense block ranges (the common case for generated traces)
        # admit a boolean-scatter count far cheaper than the sort
        # inside np.unique; fall back to unique when the range is so
        # sparse the scatter table would dwarf the trace itself.
        if span <= max(1 << 16, 8 * bids.size):
            seen = np.zeros(span, dtype=bool)
            seen[bids - lo] = True
            return int(np.count_nonzero(seen))
        return int(np.unique(bids).shape[0])

    def footprint_bytes(self, block_size: int = 8) -> int:
        """Bytes of distinct data touched, at block granularity."""
        return self.footprint(block_size) * block_size

    def concat(self, other: "Trace") -> "Trace":
        return Trace(
            np.concatenate([self.addrs, other.addrs]),
            np.concatenate([self.kinds, other.kinds]),
        )


def iter_interleave_round_robin(
    traces: Sequence["Trace"], budget: Optional[Budget] = None
) -> Iterator[Tuple[int, Access]]:
    """Lazy round-robin interleaving of per-processor traces.

    Yields ``(processor_id, access)`` pairs one at a time; the merged
    stream is never materialized.  Round-robin interleaving models
    processors proceeding in lock-step, a reasonable approximation for
    the regular SPMD computations studied in the paper.  Each round
    visits processors in pid order, skipping exhausted ones.

    Args:
        traces: One trace per processor.
        budget: Optional wall-clock :class:`Budget` polled once per
            interleaving round (defaults to the ambient campaign
            budget, if any).
    """
    if budget is None:
        budget = active_budget()
    iterators = [iter(trace) for trace in traces]
    live = list(range(len(iterators)))
    while live:
        if budget is not None:
            budget.check("trace interleaving")
        exhausted = []
        for pid in live:
            try:
                yield pid, next(iterators[pid])
            except StopIteration:
                exhausted.append(pid)
        if exhausted:
            live = [pid for pid in live if pid not in exhausted]
