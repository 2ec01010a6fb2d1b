"""An explicit fully associative LRU cache: the test oracle.

In the package every fully associative view (``FullyAssociativeCache``,
``CacheHierarchy``, the prefetch study) reads its hits off the one
stack-distance engine.  Checking that engine against a view built on it
would be circular, so the tests hold both to this simulator instead: an
``OrderedDict`` recency list, one reference at a time, sharing no code
with ``repro.mem`` beyond the trace's address and kind columns.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: The trace's kind code for a read (``repro.mem.trace.READ``).
READ = 0


@dataclass
class OracleStats:
    """The counters ``repro.mem.cache.CacheStats`` keeps, field for field."""

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
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class OracleCache:
    """Fully associative LRU over ``capacity_bytes // block_size`` blocks."""

    def __init__(self, capacity_bytes: int, block_size: int = 8) -> None:
        self.block_size = block_size
        self.num_blocks = capacity_bytes // block_size
        self._resident: "OrderedDict[int, None]" = OrderedDict()  # LRU first
        self._seen: set = set()
        self.stats = OracleStats()

    def access(self, addr: int, kind: int = READ) -> bool:
        """One reference; True on a hit."""
        block = addr // self.block_size
        stats = self.stats
        if kind == READ:
            stats.reads += 1
        else:
            stats.writes += 1
        if block in self._resident:
            self._resident.move_to_end(block)
            return True
        if kind == READ:
            stats.read_misses += 1
        else:
            stats.write_misses += 1
        if block not in self._seen:
            self._seen.add(block)
            stats.cold_misses += 1
        self._resident[block] = None
        if len(self._resident) > self.num_blocks:
            self._resident.popitem(last=False)
        return False

    def hit_mask(self, trace) -> np.ndarray:
        return np.array(
            [
                self.access(addr, kind)
                for addr, kind in zip(trace.addrs.tolist(), trace.kinds.tolist())
            ],
            dtype=bool,
        )

    def run(self, trace) -> OracleStats:
        self.hit_mask(trace)
        return self.stats

    def reset_stats(self) -> None:
        self.stats = OracleStats()


@dataclass
class OracleLevel:
    """The counters ``repro.mem.hierarchy.LevelStats`` keeps."""

    capacity_bytes: int
    accesses: int = 0
    misses: int = 0


class OracleHierarchy:
    """Levels of :class:`OracleCache`; a reference goes down until one
    hits, so each level sees exactly the misses of the level above."""

    def __init__(self, capacities: Sequence[int], block_size: int = 8) -> None:
        self.levels = [OracleCache(int(c), block_size) for c in capacities]
        self.stats: List[OracleLevel] = [OracleLevel(int(c)) for c in capacities]
        self.memory_accesses = 0

    def run(self, trace) -> List[OracleLevel]:
        for addr, kind in zip(trace.addrs.tolist(), trace.kinds.tolist()):
            for cache, level in zip(self.levels, self.stats):
                level.accesses += 1
                if cache.access(addr, kind):
                    break
                level.misses += 1
            else:
                self.memory_accesses += 1
        return self.stats


def sweep_cache_sizes(
    trace,
    capacities: Sequence[int],
    block_size: int = 8,
    warmup: int = 0,
) -> np.ndarray:
    """Miss rate of ``trace`` at each capacity (bytes), one oracle cache
    per capacity; the misses of the first ``warmup`` references are
    not counted (cold-start exclusion)."""
    pairs = list(zip(trace.addrs.tolist(), trace.kinds.tolist()))
    rates = np.empty(len(capacities), dtype=float)
    for i, capacity in enumerate(capacities):
        cache = OracleCache(int(capacity), block_size)
        for addr, kind in pairs[:warmup]:
            cache.access(addr, kind)
        cache.reset_stats()
        for addr, kind in pairs[warmup:]:
            cache.access(addr, kind)
        rates[i] = cache.stats.miss_rate
    return rates
