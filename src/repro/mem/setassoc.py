"""Set-associative and direct-mapped cache simulators.

Section 6.4 of the paper observes that with direct-mapped caches the
knees of the Barnes-Hut miss-rate curve are less well defined and that
the direct-mapped capacity required to hold the important working set is
about three times the fully associative capacity.  This module provides
the limited-associativity instrument used to reproduce that study
(``experiments/assoc_study.py``).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.mem.cache import CacheStats
from repro.mem.trace import READ, Trace
from repro.obs.metrics import hot_loop_sampler
from repro.runtime.budget import CHECK_INTERVAL, Budget, active_budget


class SetAssociativeCache:
    """An ``associativity``-way set-associative LRU cache.

    ``associativity=1`` gives a direct-mapped cache.  Indexing is the
    conventional modulo scheme: block address modulo number of sets.
    Each set is a plain list of at most ``associativity`` blocks, most
    recently used first.

    Args:
        capacity_bytes: Total capacity in bytes.
        block_size: Line size in bytes (power of two).
        associativity: Ways per set; must divide the number of blocks.
    """

    def __init__(
        self,
        capacity_bytes: int,
        block_size: int = 8,
        associativity: int = 1,
    ) -> None:
        if block_size <= 0 or (block_size & (block_size - 1)) != 0:
            raise ValueError(
                f"block_size must be a positive power of two (got {block_size})"
            )
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive (got {capacity_bytes})"
            )
        num_blocks = capacity_bytes // block_size
        if num_blocks < 1:
            raise ValueError(
                f"capacity must hold at least one block "
                f"(capacity_bytes={capacity_bytes} < block_size={block_size})"
            )
        if associativity < 1:
            raise ValueError(f"associativity must be >= 1 (got {associativity})")
        if num_blocks % associativity != 0:
            raise ValueError(
                f"associativity must divide the number of blocks "
                f"({associativity} does not divide {num_blocks})"
            )
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.associativity = associativity
        self.num_sets = num_blocks // associativity
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self._ever_seen: set = set()
        self.stats = CacheStats()

    @property
    def is_direct_mapped(self) -> bool:
        return self.associativity == 1

    def access(self, addr: int, kind: int = READ) -> bool:
        """Issue one reference.  Returns True on hit, False on miss."""
        block = addr // self.block_size
        cache_set = self._sets[block % self.num_sets]
        if kind == READ:
            self.stats.reads += 1
        else:
            self.stats.writes += 1
        if cache_set and cache_set[0] == block:
            return True
        hit = block in cache_set
        if hit:
            cache_set.remove(block)
        else:
            if kind == READ:
                self.stats.read_misses += 1
            else:
                self.stats.write_misses += 1
            if block not in self._ever_seen:
                self.stats.cold_misses += 1
                self._ever_seen.add(block)
            if len(cache_set) == self.associativity:
                cache_set.pop()
        cache_set.insert(0, block)
        return hit

    def run(self, trace: Trace, budget: Optional[Budget] = None) -> CacheStats:
        """Run a whole trace through the cache; returns cumulative stats.

        Args:
            trace: The reference stream.
            budget: Optional wall-clock :class:`Budget` polled every
                few thousand references (defaults to the ambient
                campaign budget, if any).
        """
        return self.run_many([self], trace, budget=budget)[0]

    @staticmethod
    def run_many(
        caches: Sequence["SetAssociativeCache"],
        trace: Trace,
        budget: Optional[Budget] = None,
    ) -> List[CacheStats]:
        """Run one trace through several caches (a capacity or
        associativity sweep); returns each cache's cumulative stats.

        Equal to ``[cache.run(trace, budget) for cache in caches]``:
        the same stats, states and timeline rows (but for their
        timings).  On a chunk in the kernel's domain the caches share
        one kernel call, which makes one depth pass per distinct set
        count (see ``docs/KERNELS.md``).  Otherwise each cache runs its
        loop, and caches of different block sizes run one by one.
        """
        caches = list(caches)
        if len({cache.block_size for cache in caches}) != 1:
            return [cache.run(trace, budget=budget) for cache in caches]
        from repro.mem import kernels
        from repro.obs import timeline as obs_timeline

        recorder = obs_timeline.active_recorder()
        before = [
            (cache.stats.accesses, cache.stats.misses, cache.stats.cold_misses)
            for cache in caches
        ]
        t0 = time.perf_counter()
        if not kernels.guard_run("setassoc", caches, trace, budget=budget):
            for cache in caches:
                cache._run_loop(trace, budget=budget)
        if recorder is not None:
            # One footprint for the whole sweep; the rows share its time.
            elapsed = (time.perf_counter() - t0) / len(caches)
            block_size = caches[0].block_size
            ws_blocks = trace.footprint(block_size)
            for cache, (accesses, misses, cold) in zip(caches, before):
                stats = cache.stats
                obs_timeline.record_cache_chunk(
                    recorder,
                    "setassoc",
                    trace,
                    block_size=block_size,
                    capacity_bytes=cache.capacity_bytes,
                    refs=len(trace),
                    counted=stats.accesses - accesses,
                    cold=stats.cold_misses - cold,
                    misses_total=stats.misses - misses,
                    elapsed=elapsed,
                    ws_blocks=ws_blocks,
                )
        return [cache.stats for cache in caches]

    def _run_loop(
        self, trace: Trace, budget: Optional[Budget] = None
    ) -> CacheStats:
        """The per-reference loop: the reference semantics."""
        if budget is None:
            budget = active_budget()
        sampler = hot_loop_sampler("mem.setassoc")
        misses_before = self.stats.misses
        accesses_before = self.stats.accesses
        access = self.access
        addrs = trace.addrs.tolist()
        kinds = trace.kinds.tolist()
        for start in range(0, len(addrs), CHECK_INTERVAL):
            if budget is not None:
                budget.check("set-associative cache simulation")
            if sampler is not None:
                sampler.tick(start)
            end = start + CHECK_INTERVAL
            for addr, kind in zip(addrs[start:end], kinds[start:end]):
                access(addr, kind)
        if sampler is not None:
            sampler.finish(
                refs=self.stats.accesses - accesses_before,
                misses=self.stats.misses - misses_before,
            )
        return self.stats

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]
        self._ever_seen = set()

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every set, history and stats.

        Per-set recency orders are flattened into one list plus a
        per-set length vector to keep the JSON shallow.
        """
        orders = []
        for cache_set in self._sets:
            orders.extend(cache_set)
        return {
            "capacity_bytes": self.capacity_bytes,
            "block_size": self.block_size,
            "associativity": self.associativity,
            "set_orders_mru_to_lru": orders,
            "set_counts": [len(cache_set) for cache_set in self._sets],
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
        """Restore a :meth:`state_dict` snapshot (geometry must match).

        Rejects a snapshot whose sets could not arise from this cache: a
        set holding more than ``associativity`` blocks, a block stored
        in a set its address does not map to, or a block stored twice.
        """
        for field_name in ("capacity_bytes", "block_size", "associativity"):
            if state.get(field_name) != getattr(self, field_name):
                raise ValueError(
                    f"checkpoint {field_name}={state.get(field_name)!r} does "
                    f"not match this cache's "
                    f"{field_name}={getattr(self, field_name)!r}"
                )
        counts = np.asarray(state["set_counts"], dtype=np.int64)
        if counts.shape != (self.num_sets,):
            raise ValueError(
                f"checkpoint has {counts.size} sets, cache has {self.num_sets}"
            )
        orders = np.asarray(state["set_orders_mru_to_lru"], dtype=np.int64)
        if counts.min() < 0 or orders.size != counts.sum():
            raise ValueError("checkpoint set orders disagree with set counts")
        # Checked for every set at once; the first bad set is reported.
        home = np.repeat(np.arange(self.num_sets), counts)
        stray = orders % self.num_sets != home
        misplaced = np.zeros(self.num_sets, dtype=bool)
        misplaced[home[stray]] = True
        # A block stored only in its own set repeats within that set.
        placed = np.sort(orders[~stray])
        twice = np.zeros(self.num_sets, dtype=bool)
        twice[placed[1:][placed[1:] == placed[:-1]] % self.num_sets] = True
        over = counts > self.associativity
        bad = np.flatnonzero(over | misplaced | twice)
        if bad.size:
            index = int(bad[0])
            if over[index]:
                raise ValueError(
                    f"checkpoint set {index} holds {counts[index]} blocks, more "
                    f"than the associativity {self.associativity}"
                )
            if misplaced[index]:
                raise ValueError(
                    f"checkpoint set {index} holds a block that maps to "
                    "another set"
                )
            raise ValueError(f"checkpoint set {index} holds a block twice")
        flat = orders.tolist()
        ends = np.cumsum(counts).tolist()
        sets = [flat[end - count : end] for end, count in zip(ends, counts.tolist())]
        self._sets = sets
        self._ever_seen = {int(b) for b in state["ever_seen"]}
        self.stats = CacheStats(**{k: int(v) for k, v in state["stats"].items()})
