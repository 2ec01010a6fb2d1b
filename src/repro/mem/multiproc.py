"""Shared-address-space multiprocessor memory simulation.

The paper simulates "a cache-coherent, shared-address-space
multiprocessor architecture, with each processor having a single level
of cache and an equal fraction of the total main memory" (Section 2.2).
This module provides that architecture: ``P`` private fully associative
LRU caches over one shared address space with a write-invalidate
sharing protocol, and miss classification into

- **cold** misses: first touch of a block by a given processor,
- **coherence** (communication) misses: re-fetch of a block that another
  processor's write invalidated — these are the paper's *inherent
  communication* misses and persist even with infinite caches,
- **capacity** misses: re-fetch of a block the processor's own cache
  evicted.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.mem.lru import LRUList
from repro.mem.trace import Access, READ, Trace, iter_interleave_round_robin


@dataclass
class ProcessorStats:
    """Per-processor access and miss counters."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    cold_misses: int = 0
    coherence_misses: int = 0
    capacity_misses: int = 0
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


class MultiprocessorMemory:
    """``P`` private caches over one shared address space.

    Args:
        num_processors: Number of processors (and private caches).
        capacity_bytes: Private cache capacity.  ``None`` simulates
            infinite caches, which isolates the inherent communication
            miss rate.
        block_size: Cache line size in bytes.
    """

    def __init__(
        self,
        num_processors: int,
        capacity_bytes: "int | None" = None,
        block_size: int = 8,
    ) -> None:
        if num_processors < 1:
            raise ValueError("need at least one processor")
        if block_size <= 0 or (block_size & (block_size - 1)) != 0:
            raise ValueError("block_size must be a positive power of two")
        if capacity_bytes is not None and capacity_bytes < block_size:
            raise ValueError("capacity must hold at least one block")
        self.num_processors = num_processors
        self.block_size = block_size
        self.capacity_bytes = capacity_bytes
        self.capacity_blocks = (
            None if capacity_bytes is None else capacity_bytes // block_size
        )
        self._caches = [LRUList() for _ in range(num_processors)]
        self._ever_seen: List[Set[int]] = [set() for _ in range(num_processors)]
        self._invalidated: List[Set[int]] = [set() for _ in range(num_processors)]
        # Directory: block -> set of processors with a valid copy.
        self._sharers: Dict[int, Set[int]] = {}
        # Block -> processor that last wrote it.
        self._last_writer: Dict[int, int] = {}
        self.stats = [ProcessorStats() for _ in range(num_processors)]

    def access(self, pid: int, addr: int, kind: int = READ) -> bool:
        """Issue one reference from processor ``pid``.

        Returns True on hit.  A write invalidates all other valid
        copies (write-invalidate protocol).
        """
        block = addr // self.block_size
        cache = self._caches[pid]
        stats = self.stats[pid]
        if kind == READ:
            stats.reads += 1
        else:
            stats.writes += 1

        hit = cache.touch(block)
        if not hit:
            if kind == READ:
                stats.read_misses += 1
                writer = self._last_writer.get(block)
                if writer is not None and writer != pid:
                    stats.remote_reads += 1
            else:
                stats.write_misses += 1
            if block in self._invalidated[pid]:
                stats.coherence_misses += 1
                self._invalidated[pid].discard(block)
            elif block not in self._ever_seen[pid]:
                stats.cold_misses += 1
            else:
                stats.capacity_misses += 1
            self._ever_seen[pid].add(block)
            if self.capacity_blocks is not None and len(cache) > self.capacity_blocks:
                victim = cache.evict_lru()
                sharers = self._sharers.get(victim)
                if sharers is not None:
                    sharers.discard(pid)
            self._sharers.setdefault(block, set()).add(pid)

        if kind != READ:
            sharers = self._sharers.setdefault(block, set())
            for other in list(sharers):
                if other == pid:
                    continue
                other_cache = self._caches[other]
                if block in other_cache:
                    other_cache.remove(block)
                    self._invalidated[other].add(block)
                    self.stats[other].invalidations_received += 1
                sharers.discard(other)
            sharers.add(pid)
            self._last_writer[block] = pid
        return hit

    def run(
        self, interleaved: Iterable[Tuple[int, Access]]
    ) -> List[ProcessorStats]:
        """Run an interleaved multiprocessor reference stream.

        Accepts any iterable — a materialized list or the lazy
        :func:`~repro.mem.trace.iter_interleave_round_robin` stream.
        """
        for pid, access in interleaved:
            self.access(pid, access.addr, access.kind)
        return self.stats

    def run_traces(self, traces: Sequence[Trace]) -> List[ProcessorStats]:
        """Round-robin interleave per-processor traces and run them.

        In-memory traces on infinite caches go through the columnar
        coherence kernel (:func:`repro.mem.kernels.kernel_multiproc`),
        one guarded call per invocation.  Otherwise the interleaving is
        lazy, so out-of-core per-processor traces are merged without
        ever materializing the combined stream.
        """
        if len(traces) != self.num_processors:
            raise ValueError(
                f"expected {self.num_processors} traces, got {len(traces)}"
            )
        from repro.mem import kernels

        if kernels.guard_run("multiproc", self, traces):
            return self.stats
        return self.run(iter_interleave_round_robin(traces))

    def reset_stats(self) -> None:
        """Zero counters without flushing cache or directory state.

        Used to exclude cold-start effects: run warm-up iterations, reset,
        then measure steady-state miss rates (Section 2.2).
        """
        self.stats = [ProcessorStats() for _ in range(self.num_processors)]

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every cache, the directory and
        the counters.

        Per processor: resident blocks MRU -> LRU, blocks ever seen and
        blocks invalidated since their last fetch (both sorted).  The
        directory is the sorted ``[block, sharer pids]`` pairs with at
        least one sharer, and the sorted ``[block, last writer]`` pairs.
        """
        return {
            "num_processors": self.num_processors,
            "capacity_bytes": self.capacity_bytes,
            "block_size": self.block_size,
            "caches_mru_to_lru": [
                list(cache.keys_mru_to_lru()) for cache in self._caches
            ],
            "ever_seen": [sorted(seen) for seen in self._ever_seen],
            "invalidated": [sorted(inv) for inv in self._invalidated],
            "sharers": [
                [block, sorted(pids)]
                for block, pids in sorted(self._sharers.items())
                if pids
            ],
            "last_writer": [
                [block, pid] for block, pid in sorted(self._last_writer.items())
            ],
            "stats": [asdict(stats) for stats in self.stats],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (geometry must match)."""
        for field_name in ("num_processors", "capacity_bytes", "block_size"):
            if state.get(field_name) != getattr(self, field_name):
                raise ValueError(
                    f"checkpoint {field_name}={state.get(field_name)!r} does "
                    f"not match this simulator's "
                    f"{field_name}={getattr(self, field_name)!r}"
                )
        per_processor = ("caches_mru_to_lru", "ever_seen", "invalidated", "stats")
        for key in per_processor:
            if len(state[key]) != self.num_processors:
                raise ValueError(
                    f"checkpoint {key} has {len(state[key])} entries for "
                    f"{self.num_processors} processors"
                )
        caches = []
        for order in state["caches_mru_to_lru"]:
            cache = LRUList()
            for block in reversed(order):
                cache.touch(int(block))
            caches.append(cache)
        self._caches = caches
        self._ever_seen = [{int(b) for b in seen} for seen in state["ever_seen"]]
        self._invalidated = [{int(b) for b in inv} for inv in state["invalidated"]]
        self._sharers = {
            int(block): {int(p) for p in pids} for block, pids in state["sharers"]
        }
        self._last_writer = {
            int(block): int(pid) for block, pid in state["last_writer"]
        }
        self.stats = [
            ProcessorStats(**{k: int(v) for k, v in stats.items()})
            for stats in state["stats"]
        ]

    def aggregate(self) -> ProcessorStats:
        """Sum of all per-processor counters."""
        total = ProcessorStats()
        for stats in self.stats:
            total.reads += stats.reads
            total.writes += stats.writes
            total.read_misses += stats.read_misses
            total.write_misses += stats.write_misses
            total.cold_misses += stats.cold_misses
            total.coherence_misses += stats.coherence_misses
            total.capacity_misses += stats.capacity_misses
            total.invalidations_received += stats.invalidations_received
            total.remote_reads += stats.remote_reads
        return total
