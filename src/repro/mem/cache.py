"""Fully associative LRU cache simulator.

The paper's methodology (Section 2.2): "we use fully associative caches
with an LRU replacement policy" and look for knees in the miss rate
versus cache size curve.  A cache of ``C`` blocks hits exactly the
references whose Mattson stack depth is at most ``C``, so this
simulator reads its hits off the one depth engine,
:class:`repro.mem.stack_distance.StackDistanceRun`; for sweeping many
cache sizes at once, prefer
:class:`repro.mem.stack_distance.StackDistanceProfiler`, which computes
identical miss rates in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.mem.stack_distance import StackDistanceRun
from repro.mem.trace import READ, Trace
from repro.runtime.budget import Budget


@dataclass
class CacheStats:
    """Hit/miss counters, split by reference kind and miss cause."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    cold_misses: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def capacity_misses(self) -> int:
        """Misses to blocks seen before (i.e. not cold)."""
        return self.misses - self.cold_misses

    @property
    def miss_rate(self) -> float:
        """Misses per access (all references)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def read_miss_rate(self) -> float:
        """Read misses per read reference — the paper's metric for
        Barnes-Hut and volume rendering."""
        return self.read_misses / self.reads if self.reads else 0.0


class FullyAssociativeCache:
    """A fully associative, LRU-replacement cache.

    Args:
        capacity_bytes: Total cache capacity in bytes.
        block_size: Cache line size in bytes (power of two).  The paper
            accounts misses at double-word (8-byte) granularity, so the
            default block size is 8.
    """

    def __init__(self, capacity_bytes: int, block_size: int = 8) -> None:
        if block_size <= 0 or (block_size & (block_size - 1)) != 0:
            raise ValueError(
                f"block_size must be a positive power of two (got {block_size})"
            )
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive (got {capacity_bytes})"
            )
        if capacity_bytes < block_size:
            raise ValueError(
                f"capacity must hold at least one block "
                f"(capacity_bytes={capacity_bytes} < block_size={block_size})"
            )
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.num_blocks = capacity_bytes // block_size
        self._depths = StackDistanceRun(block_size=block_size)
        self.stats = CacheStats()

    def hit_mask(self, trace: Trace, budget: Optional[Budget] = None) -> np.ndarray:
        """Advance over one chunk; returns its boolean hit mask and adds
        the chunk to :attr:`stats`.  Writes no timeline row.

        A reference hits iff ``0 < depth <= num_blocks``; depth 0 (a
        first touch) is a cold miss.  ``budget`` (default: the ambient
        campaign budget) is polled as the depth engine runs.
        """
        depth = self._depths.feed_depths(trace, budget=budget)
        hit = (depth > 0) & (depth <= self.num_blocks)
        is_read = trace.kinds == READ
        reads = int(np.count_nonzero(is_read))
        misses = len(trace) - int(np.count_nonzero(hit))
        read_misses = reads - int(np.count_nonzero(hit & is_read))
        stats = self.stats
        stats.reads += reads
        stats.writes += len(trace) - reads
        stats.read_misses += read_misses
        stats.write_misses += misses - read_misses
        stats.cold_misses += len(trace) - int(np.count_nonzero(depth))
        return hit

    def reset_stats(self) -> None:
        """Zero the counters without flushing cache contents.

        Used to exclude cold-start misses: warm the cache on the first
        iterations, reset, then measure the steady state (Section 2.2).
        """
        self.stats = CacheStats()
