"""Explicit fully associative LRU cache simulator.

The paper's methodology (Section 2.2): "we use fully associative caches
with an LRU replacement policy" and look for knees in the miss rate
versus cache size curve.  This simulator is the direct realization of
that instrument; for sweeping many cache sizes at once, prefer
:class:`repro.mem.stack_distance.StackDistanceProfiler`, which computes
identical miss rates in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.mem.lru import LRUList
from repro.mem.trace import READ, Trace
from repro.obs.metrics import hot_loop_sampler
from repro.runtime.budget import CHECK_MASK, Budget, active_budget


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
        self._lru = LRUList()
        self._ever_seen: set = set()
        self.stats = CacheStats()

    def _block_of(self, addr: int) -> int:
        return addr // self.block_size

    def access(self, addr: int, kind: int = READ) -> bool:
        """Issue one reference.  Returns True on hit, False on miss."""
        block = self._block_of(addr)
        if kind == READ:
            self.stats.reads += 1
        else:
            self.stats.writes += 1
        hit = self._lru.touch(block)
        if not hit:
            if kind == READ:
                self.stats.read_misses += 1
            else:
                self.stats.write_misses += 1
            if block not in self._ever_seen:
                self.stats.cold_misses += 1
                self._ever_seen.add(block)
            if len(self._lru) > self.num_blocks:
                self._lru.evict_lru()
        return hit

    def run(self, trace: Trace, budget: Optional[Budget] = None) -> CacheStats:
        """Run a whole trace through the cache; returns cumulative stats.

        Args:
            trace: The reference stream.
            budget: Optional wall-clock :class:`Budget` polled every
                few thousand references (defaults to the ambient
                campaign budget, if any).
        """
        from repro.obs import timeline as obs_timeline

        recorder = obs_timeline.active_recorder()
        if recorder is None:
            return self._run_impl(trace, budget=budget)
        import time as _time

        pre = self.stats
        pre_reads, pre_writes = pre.reads, pre.writes
        pre_misses, pre_cold = pre.misses, pre.cold_misses
        t0 = _time.perf_counter()
        stats = self._run_impl(trace, budget=budget)
        obs_timeline.record_cache_chunk(
            recorder,
            "fullassoc",
            trace,
            block_size=self.block_size,
            capacity_bytes=self.capacity_bytes,
            refs=len(trace),
            counted=(stats.reads + stats.writes) - (pre_reads + pre_writes),
            cold=stats.cold_misses - pre_cold,
            misses_total=stats.misses - pre_misses,
            elapsed=_time.perf_counter() - t0,
        )
        return stats

    def _run_impl(
        self, trace: Trace, budget: Optional[Budget] = None
    ) -> CacheStats:
        from repro.mem import kernels

        if kernels.guard_run("fullassoc", self, trace, budget=budget):
            return self.stats
        if budget is None:
            budget = active_budget()
        blocks = trace.block_ids(self.block_size)
        kinds = trace.kinds
        lru = self._lru
        ever_seen = self._ever_seen
        num_blocks = self.num_blocks
        stats = self.stats
        sampler = hot_loop_sampler("mem.fullassoc")
        reads = writes = read_misses = write_misses = cold = 0
        for i, (block, kind) in enumerate(zip(blocks.tolist(), kinds.tolist())):
            # Cooperative budget polling on a masked branch; off the
            # mask this costs one AND + test.
            if not (i & CHECK_MASK) and budget is not None:
                budget.check("fully associative cache simulation")
            if kind == READ:
                reads += 1
            else:
                writes += 1
            if not lru.touch(block):
                if kind == READ:
                    read_misses += 1
                else:
                    write_misses += 1
                if block not in ever_seen:
                    cold += 1
                    ever_seen.add(block)
                if len(lru) > num_blocks:
                    lru.evict_lru()
        stats.reads += reads
        stats.writes += writes
        stats.read_misses += read_misses
        stats.write_misses += write_misses
        stats.cold_misses += cold
        if sampler is not None:
            sampler.finish(refs=reads + writes, misses=read_misses + write_misses)
        return stats

    def contains(self, addr: int) -> bool:
        """True if the block holding ``addr`` is currently resident."""
        return self._block_of(addr) in self._lru

    def resident_blocks(self) -> int:
        return len(self._lru)

    def reset_stats(self) -> None:
        """Zero the counters without flushing cache contents.

        Used to exclude cold-start misses: warm the cache on the first
        iterations, reset, then measure the steady state (Section 2.2).
        """
        self.stats = CacheStats()

    def flush(self) -> None:
        """Empty the cache and forget cold-miss history."""
        self._lru = LRUList()
        self._ever_seen = set()

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of contents, history and stats."""
        return {
            "capacity_bytes": self.capacity_bytes,
            "block_size": self.block_size,
            "lru_mru_to_lru": list(self._lru.keys_mru_to_lru()),
            "ever_seen": sorted(self._ever_seen),
            "stats": {
                "reads": self.stats.reads,
                "writes": self.stats.writes,
                "read_misses": self.stats.read_misses,
                "write_misses": self.stats.write_misses,
                "cold_misses": self.stats.cold_misses,
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (geometry must match)."""
        for field_name in ("capacity_bytes", "block_size"):
            if state.get(field_name) != getattr(self, field_name):
                raise ValueError(
                    f"checkpoint {field_name}={state.get(field_name)!r} does "
                    f"not match this cache's "
                    f"{field_name}={getattr(self, field_name)!r}"
                )
        lru = LRUList()
        # Touching in LRU->MRU order reproduces the recency list exactly.
        for key in reversed([int(k) for k in state["lru_mru_to_lru"]]):
            lru.touch(key)
        self._lru = lru
        self._ever_seen = {int(b) for b in state["ever_seen"]}
        self.stats = CacheStats(**{k: int(v) for k, v in state["stats"].items()})


def sweep_cache_sizes(
    trace: Trace,
    capacities: "np.ndarray",
    block_size: int = 8,
    warmup: int = 0,
) -> "np.ndarray":
    """Miss rate of ``trace`` at each capacity, via explicit simulation.

    This is the slow reference implementation used to validate
    :class:`~repro.mem.stack_distance.StackDistanceProfiler`; it runs the
    trace once per capacity.

    Args:
        trace: The reference stream.
        capacities: Array of cache sizes in bytes.
        block_size: Line size in bytes.
        warmup: Number of initial references whose misses are ignored
            (cold-start exclusion).

    Returns:
        Array of miss rates (misses / accesses after warmup), aligned
        with ``capacities``.
    """
    rates = np.empty(len(capacities), dtype=float)
    for i, capacity in enumerate(capacities):
        cache = FullyAssociativeCache(int(capacity), block_size)
        if warmup:
            head = Trace(trace.addrs[:warmup], trace.kinds[:warmup])
            cache.run(head)
            cache.reset_stats()
            tail = Trace(trace.addrs[warmup:], trace.kinds[warmup:])
            stats = cache.run(tail)
        else:
            stats = cache.run(trace)
        rates[i] = stats.miss_rate
    return rates
