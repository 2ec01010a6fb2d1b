"""Set-associative and direct-mapped cache simulators.

Section 6.4 of the paper observes that with direct-mapped caches the
knees of the Barnes-Hut miss-rate curve are less well defined and that
the direct-mapped capacity required to hold the important working set is
about three times the fully associative capacity.  This module provides
the limited-associativity instrument used to reproduce that study
(``experiments/assoc_study.py``).

Every chunk runs on the numpy ``setassoc`` kernel
(:func:`repro.mem.kernels.kernel_setassoc`), which scores a whole sweep
of caches from one depth pass per set count.  A per-reference loop over
the same snapshots is kept in the tests (``tests/harness/loops.py``) as
the reference the kernel is held to.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.mem.cache import CacheStats
from repro.mem.trace import Trace
from repro.runtime.budget import Budget


class SetAssociativeCache:
    """An ``associativity``-way set-associative LRU cache.

    ``associativity=1`` gives a direct-mapped cache.  Indexing is the
    conventional modulo scheme: block address modulo number of sets.
    The cache holds the columns of its snapshot: every set's blocks,
    most recently used first, in one flat list, the per-set counts, and
    the sorted blocks ever seen (which tell cold misses apart).

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
        self._orders: List[int] = []
        self._counts: List[int] = [0] * self.num_sets
        self._ever_seen: List[int] = []
        self.stats = CacheStats()

    @property
    def is_direct_mapped(self) -> bool:
        return self.associativity == 1

    def run(self, trace: Trace, budget: Optional[Budget] = None) -> CacheStats:
        """Run a whole trace through the cache; returns cumulative stats.

        Args:
            trace: The reference stream.
            budget: Optional wall-clock :class:`Budget` polled once
                per chunk and depth pass (defaults to the ambient
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
        timings).  The caches share one kernel call, which makes one
        depth pass per distinct set count (see ``docs/KERNELS.md``);
        caches of different block sizes run one by one.  A chunk outside
        the kernel's domain raises ``ValueError`` and changes no cache.
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
        kernels.guard_run("setassoc", caches, trace, budget=budget)
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

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every set, history and stats.

        Per-set recency orders are flattened into one list plus a
        per-set length vector to keep the JSON shallow.
        """
        return {
            "capacity_bytes": self.capacity_bytes,
            "block_size": self.block_size,
            "associativity": self.associativity,
            "set_orders_mru_to_lru": list(self._orders),
            "set_counts": list(self._counts),
            "ever_seen": list(self._ever_seen),
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
        self._orders = orders.tolist()
        self._counts = counts.tolist()
        self._ever_seen = np.unique(
            np.asarray(state["ever_seen"], dtype=np.int64)
        ).tolist()
        self.stats = CacheStats(**{k: int(v) for k, v in state["stats"].items()})
