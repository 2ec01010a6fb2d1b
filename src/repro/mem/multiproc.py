"""Shared-address-space multiprocessor memory simulation.

The paper simulates "a cache-coherent, shared-address-space
multiprocessor architecture, with each processor having a single level
of cache and an equal fraction of the total main memory" (Section 2.2),
and measures its inherent communication with infinite caches.  This
module provides that architecture: ``P`` private infinite caches over
one shared address space with a write-invalidate sharing protocol, and
miss classification into

- **cold** misses: first touch of a block by a given processor,
- **coherence** (communication) misses: re-fetch of a block that another
  processor's write invalidated — these are the paper's *inherent
  communication* misses.

With infinite caches a block leaves a cache only by invalidation, so
every miss is one of the two.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import List, Sequence

import numpy as np

from repro.mem.trace import Trace


@dataclass
class ProcessorStats:
    """Per-processor access and miss counters."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    cold_misses: int = 0
    coherence_misses: int = 0
    invalidations_received: int = 0
    #: Read misses to blocks last written by a *different* processor —
    #: producer-consumer communication, counted even on the consumer's
    #: first (cold) touch.
    remote_reads: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def read_miss_rate(self) -> float:
        return self.read_misses / self.reads if self.reads else 0.0

    @property
    def communication_miss_rate(self) -> float:
        """Coherence misses per access — the floor that remains with an
        infinite cache (the paper's 'communication miss rate')."""
        return self.coherence_misses / self.accesses if self.accesses else 0.0


def _blocks(column) -> List[int]:
    return np.asarray(column, dtype=np.int64).tolist()


class MultiprocessorMemory:
    """``P`` private infinite caches over one shared address space.

    Every call runs on the numpy ``multiproc`` kernel
    (:func:`repro.mem.kernels.kernel_multiproc`); a per-reference loop
    over the same snapshots is kept in the tests
    (``tests/harness/loops.py``) as the reference the kernel is held
    to.  The machine holds the columns of its snapshot: per processor
    the blocks its cache holds and those invalidated since its last
    fetch, and every written block's last writer.  An infinite cache
    never evicts, so no recency order is kept; the blocks a processor
    ever fetched are its resident and invalidated ones, and a block's
    sharers are the processors holding it.

    Args:
        num_processors: Number of processors (and private caches).
        block_size: Cache line size in bytes.
    """

    def __init__(self, num_processors: int, block_size: int = 8) -> None:
        if num_processors < 1:
            raise ValueError("need at least one processor")
        if block_size <= 0 or (block_size & (block_size - 1)) != 0:
            raise ValueError("block_size must be a positive power of two")
        self.num_processors = num_processors
        self.block_size = block_size
        self._resident: List[List[int]] = [[] for _ in range(num_processors)]
        self._invalidated: List[List[int]] = [[] for _ in range(num_processors)]
        self._last_writer: List[List[int]] = []
        self.stats = [ProcessorStats() for _ in range(num_processors)]

    def run_traces(self, traces: Sequence[Trace]) -> List[ProcessorStats]:
        """Round-robin interleave per-processor traces and run them.

        One guarded kernel call per invocation; the interleaved stream
        is built one window at a time, never whole.  A block id outside
        the kernel's domain raises ``ValueError`` and changes nothing.
        """
        if len(traces) != self.num_processors:
            raise ValueError(
                f"expected {self.num_processors} traces, got {len(traces)}"
            )
        from repro.mem import kernels

        kernels.guard_run("multiproc", self, traces)
        return self.stats

    def reset_stats(self) -> None:
        """Zero counters without flushing cache or directory state.

        Used to exclude cold-start effects: run warm-up iterations, reset,
        then measure steady-state miss rates (Section 2.2).
        """
        self.stats = [ProcessorStats() for _ in range(self.num_processors)]

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every cache, the last writers
        and the counters.

        Per processor: its resident blocks and the blocks invalidated
        since its last fetch of them (both sorted); then the sorted
        ``[block, last writer]`` pairs.
        """
        return {
            "num_processors": self.num_processors,
            "block_size": self.block_size,
            "resident": [list(blocks) for blocks in self._resident],
            "invalidated": [list(blocks) for blocks in self._invalidated],
            "last_writer": [list(pair) for pair in self._last_writer],
            "stats": [asdict(stats) for stats in self.stats],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (geometry must match)."""
        for field_name in ("num_processors", "block_size"):
            if state.get(field_name) != getattr(self, field_name):
                raise ValueError(
                    f"checkpoint {field_name}={state.get(field_name)!r} does "
                    f"not match this simulator's "
                    f"{field_name}={getattr(self, field_name)!r}"
                )
        per_processor = ("resident", "invalidated", "stats")
        for key in per_processor:
            if len(state[key]) != self.num_processors:
                raise ValueError(
                    f"checkpoint {key} has {len(state[key])} entries for "
                    f"{self.num_processors} processors"
                )
        self._resident = [_blocks(blocks) for blocks in state["resident"]]
        self._invalidated = [_blocks(blocks) for blocks in state["invalidated"]]
        self._last_writer = _blocks(state["last_writer"])
        self.stats = [
            ProcessorStats(**{k: int(v) for k, v in stats.items()})
            for stats in state["stats"]
        ]

    def aggregate(self) -> ProcessorStats:
        """Sum of all per-processor counters."""
        return ProcessorStats(
            **{
                f.name: sum(getattr(stats, f.name) for stats in self.stats)
                for f in fields(ProcessorStats)
            }
        )
