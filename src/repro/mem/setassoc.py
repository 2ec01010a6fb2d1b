"""Set-associative and direct-mapped cache simulators.

Section 6.4 of the paper observes that with direct-mapped caches the
knees of the Barnes-Hut miss-rate curve are less well defined and that
the direct-mapped capacity required to hold the important working set is
about three times the fully associative capacity.  This module provides
the limited-associativity instrument used to reproduce that study
(``experiments/assoc_study.py``).
"""

from __future__ import annotations

from typing import List, Optional

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

        A sharded :class:`~repro.mem.shards.StreamingTrace` is consumed
        chunk-wise in bounded memory, with checkpoint/resume at shard
        boundaries when a stream configuration is active.

        Args:
            trace: The reference stream.
            budget: Optional wall-clock :class:`Budget` polled every
                few thousand references (defaults to the ambient
                campaign budget, if any).
        """
        if hasattr(trace, "iter_chunks"):
            from repro.mem.streamsim import run_setassoc_streamed

            return run_setassoc_streamed(self, trace, budget=budget)
        from repro.obs import timeline as obs_timeline

        recorder = obs_timeline.active_recorder()
        if recorder is None:
            return self._run_impl(trace, budget=budget)
        import time as _time

        pre = self.stats
        pre_accesses, pre_misses = pre.accesses, pre.misses
        pre_cold = pre.cold_misses
        t0 = _time.perf_counter()
        stats = self._run_impl(trace, budget=budget)
        obs_timeline.record_cache_chunk(
            recorder,
            "setassoc",
            trace,
            block_size=self.block_size,
            capacity_bytes=self.capacity_bytes,
            refs=len(trace),
            counted=stats.accesses - pre_accesses,
            cold=stats.cold_misses - pre_cold,
            misses_total=stats.misses - pre_misses,
            elapsed=_time.perf_counter() - t0,
        )
        return stats

    def _run_impl(
        self, trace: Trace, budget: Optional[Budget] = None
    ) -> CacheStats:
        from repro.mem import kernels

        if kernels.guard_run("setassoc", self, trace, budget=budget):
            return self.stats
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
        counts = [int(c) for c in state["set_counts"]]
        if len(counts) != self.num_sets:
            raise ValueError(
                f"checkpoint has {len(counts)} sets, cache has {self.num_sets}"
            )
        orders = [int(k) for k in state["set_orders_mru_to_lru"]]
        if len(orders) != sum(counts):
            raise ValueError("checkpoint set orders disagree with set counts")
        sets = []
        offset = 0
        for index, count in enumerate(counts):
            cache_set = orders[offset : offset + count]
            offset += count
            if count > self.associativity:
                raise ValueError(
                    f"checkpoint set {index} holds {count} blocks, more than "
                    f"the associativity {self.associativity}"
                )
            if any(block % self.num_sets != index for block in cache_set):
                raise ValueError(
                    f"checkpoint set {index} holds a block that maps to "
                    "another set"
                )
            if len(set(cache_set)) != count:
                raise ValueError(f"checkpoint set {index} holds a block twice")
            sets.append(cache_set)
        self._sets = sets
        self._ever_seen = {int(b) for b in state["ever_seen"]}
        self.stats = CacheStats(**{k: int(v) for k, v in state["stats"].items()})
