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
derive from one stack-distance profile; the explicit simulator here is
the cross-check and also yields per-level *traffic*, which the profile
alone does not.  On a chunk in the kernel's domain
:meth:`CacheHierarchy.run` takes one fully associative depth step per
level over the miss stream of the level above (the ``hierarchy``
kernel); the per-reference ``access`` loop is the reference semantics,
and the tests hold the kernel to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.mem.cache import FullyAssociativeCache
from repro.mem.stack_distance import StackDistanceProfile
from repro.mem.trace import READ, Trace
from repro.obs.metrics import hot_loop_sampler
from repro.runtime.budget import CHECK_INTERVAL, Budget, active_budget


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
        self.block_size = block_size
        self.stats = [LevelStats(int(c)) for c in capacities]
        self.memory_accesses = 0

    def access(self, addr: int, kind: int = READ) -> int:
        """Issue one reference; returns the level index that hit
        (``len(levels)`` means main memory)."""
        hit_level = len(self.levels)
        for index, cache in enumerate(self.levels):
            self.stats[index].accesses += 1
            if cache.access(addr, kind):
                hit_level = index
                break
            self.stats[index].misses += 1
        else:
            self.memory_accesses += 1
        return hit_level

    def run(self, trace: Trace, budget: Optional[Budget] = None) -> List[LevelStats]:
        """Run a whole trace through the hierarchy; returns the
        cumulative per-level stats.

        ``budget`` (default: the ambient campaign budget) is polled
        every few thousand references.
        """
        from repro.mem import kernels

        if kernels.guard_run("hierarchy", self, trace, budget=budget):
            return self.stats
        if budget is None:
            budget = active_budget()
        sampler = hot_loop_sampler("mem.hierarchy")
        memory_before = self.memory_accesses
        access = self.access
        block_size = self.block_size
        blocks = trace.block_ids(block_size).tolist()
        kinds = trace.kinds.tolist()
        for start in range(0, len(blocks), CHECK_INTERVAL):
            if budget is not None:
                budget.check("cache hierarchy simulation")
            end = start + CHECK_INTERVAL
            for block, kind in zip(blocks[start:end], kinds[start:end]):
                access(block * block_size, kind)
        if sampler is not None:
            sampler.finish(
                refs=len(blocks), misses=self.memory_accesses - memory_before
            )
        return self.stats

    def state_dict(self) -> dict:
        """JSON-serializable snapshot: every level's cache, the
        per-level counters and the memory access count."""
        return {
            "block_size": self.block_size,
            "levels": [cache.state_dict() for cache in self.levels],
            "stats": [
                {
                    "capacity_bytes": level.capacity_bytes,
                    "accesses": level.accesses,
                    "misses": level.misses,
                }
                for level in self.stats
            ],
            "memory_accesses": self.memory_accesses,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (geometry must match)."""
        capacities = [cache.capacity_bytes for cache in self.levels]
        if state.get("block_size") != self.block_size:
            raise ValueError(
                f"checkpoint block_size={state.get('block_size')!r} does not "
                f"match this hierarchy's block_size={self.block_size!r}"
            )
        for key in ("levels", "stats"):
            found = [entry.get("capacity_bytes") for entry in state[key]]
            if found != capacities:
                raise ValueError(
                    f"checkpoint {key} capacities {found} do not match this "
                    f"hierarchy's {capacities}"
                )
        for cache, level in zip(self.levels, state["levels"]):
            cache.load_state_dict(level)
        self.stats = [
            LevelStats(int(s["capacity_bytes"]), int(s["accesses"]), int(s["misses"]))
            for s in state["stats"]
        ]
        self.memory_accesses = int(state["memory_accesses"])

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
