"""Multi-level cache hierarchy simulation.

The paper's abstract frames working sets as determining "how large
different levels of a multiprocessor's cache hierarchy should be".
This module simulates an inclusive two-(or more-)level hierarchy of
fully associative LRU caches and maps each working set to the level
that captures it: the lev1WS belongs in a small first-level cache, the
important working set in the second level, and the partition-sized set
(if anywhere) in memory.

Because every level is fully associative LRU over the same block size,
the hierarchy obeys inclusion automatically: a level-i hit implies the
block would hit in any larger level.  Per-level miss counts therefore
derive from one stack-distance profile
(:func:`hierarchy_miss_rates_from_profile`).  :class:`CacheHierarchy`
is the explicit cascade that the profile is checked against, and it
also yields per-level *traffic*, which the profile alone does not:
level 1 sees the whole chunk, and each lower level sees only the
references that missed the level above.  Every level is a
:class:`~repro.mem.cache.FullyAssociativeCache`, so each pass runs on
the one depth engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.mem.cache import FullyAssociativeCache
from repro.mem.stack_distance import StackDistanceProfile
from repro.mem.trace import Trace
from repro.runtime.budget import Budget


@dataclass
class LevelStats:
    """Per-level counters.

    Attributes:
        capacity_bytes: The level's size.
        accesses: References that reached this level (misses of the
            level above; all references for level 1).
        misses: References this level could not satisfy.
    """

    capacity_bytes: int
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def local_miss_rate(self) -> float:
        """Misses over accesses *to this level*."""
        return self.misses / self.accesses if self.accesses else 0.0


class CacheHierarchy:
    """An inclusive multi-level fully associative LRU hierarchy.

    Args:
        capacities: Strictly increasing level sizes in bytes
            (L1 smallest).
        block_size: Shared line size.
    """

    def __init__(self, capacities: Sequence[int], block_size: int = 8) -> None:
        if not capacities:
            raise ValueError("need at least one level")
        if any(b >= a for a, b in zip(capacities[1:], capacities)):
            raise ValueError("capacities must be strictly increasing")
        self.levels = [
            FullyAssociativeCache(int(c), block_size) for c in capacities
        ]
        self.stats = [LevelStats(int(c)) for c in capacities]
        self.memory_accesses = 0

    def run(self, trace: Trace, budget: Optional[Budget] = None) -> List[LevelStats]:
        """Run a whole trace through the hierarchy; returns the
        cumulative per-level stats.

        Each level takes one pass over the references that missed every
        level above it.  ``budget`` (default: the ambient campaign
        budget) is polled as each level's pass runs.  An error in one
        level's pass leaves the levels above it advanced.
        """
        for cache, level in zip(self.levels, self.stats):
            miss = ~cache.hit_mask(trace, budget=budget)
            level.accesses += len(trace)
            trace = Trace(trace.addrs[miss], trace.kinds[miss])
            level.misses += len(trace)
        self.memory_accesses += len(trace)
        return self.stats

    @property
    def global_miss_rate(self) -> float:
        """References missing every level, over all references."""
        total = self.stats[0].accesses
        return self.stats[-1].misses / total if total else 0.0


@dataclass(frozen=True)
class LevelAssignment:
    """A working set mapped to a hierarchy level.

    Attributes:
        working_set_name: Which working set.
        working_set_bytes: Its size.
        level: 0-based cache level that captures it (== num_levels
            means it only fits in main memory).
    """

    working_set_name: str
    working_set_bytes: float
    level: int


def assign_working_sets(
    working_set_sizes: Sequence[tuple],
    level_capacities: Sequence[int],
    slack: float = 2.0,
) -> List[LevelAssignment]:
    """Map each (name, bytes) working set to the smallest hierarchy
    level that holds it with ``slack`` headroom.

    This is the design procedure the paper implies: read the working-set
    hierarchy off the knees, then size each cache level to the working
    set it must capture.
    """
    if slack < 1.0:
        raise ValueError("slack must be >= 1")
    assignments = []
    for name, size in working_set_sizes:
        level = len(level_capacities)
        for index, capacity in enumerate(level_capacities):
            if capacity >= size * slack:
                level = index
                break
        assignments.append(
            LevelAssignment(
                working_set_name=name, working_set_bytes=size, level=level
            )
        )
    return assignments


def hierarchy_miss_rates_from_profile(
    profile: StackDistanceProfile, level_capacities: Sequence[int]
) -> List[float]:
    """Per-level *local* miss rates derived from one stack-distance
    profile (exact for inclusive fully associative LRU levels).

    Level i's accesses are the misses of level i-1; its misses are the
    references whose stack depth exceeds its own capacity.
    """
    if profile.total == 0:
        return [0.0] * len(level_capacities)
    upstream = profile.total
    rates = []
    for capacity in level_capacities:
        misses = profile.misses_at(int(capacity) // profile.block_size)
        rates.append(misses / upstream if upstream else 0.0)
        upstream = misses
    return rates
