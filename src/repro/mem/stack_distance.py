"""Mattson stack-distance profiling.

For a fully associative LRU cache, whether a reference hits depends only
on its *stack depth*: the number of distinct blocks referenced since the
previous reference to the same block (inclusive of the block itself).  A
reference with stack depth ``d`` hits in every cache of at least ``d``
blocks and misses in every smaller cache.  Profiling the distribution of
stack depths over a trace therefore yields the exact LRU miss rate at
**every** cache size in a single pass — the classic inclusion property
of Mattson, Gecsei, Slutz & Traiger (1970).

The paper sweeps cache sizes and looks for knees in the resulting curve
(Section 2.2); this profiler is how we make that sweep tractable in
Python.

Implementation: the numpy ``stackdist`` kernel
(:func:`repro.mem.kernels.kernel_stackdist`) advances the profile over
each chunk in a few whole-array passes.  A per-reference Fenwick-tree
loop over the same snapshots is kept in the tests
(``tests/harness/loops.py``) as the reference the kernel is held to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mem.trace import READ, Trace
from repro.runtime.budget import Budget


@dataclass
class StackDistanceProfile:
    """Result of profiling one trace.

    Attributes:
        depth_histogram: ``depth_histogram[d]`` counts references whose
            stack depth is ``d`` (1-based; index 0 is unused).
        cold_misses: References to never-before-seen blocks (infinite
            depth).
        total: Total counted references.
        block_size: Cache line size in bytes used during profiling.
    """

    depth_histogram: np.ndarray
    cold_misses: int
    total: int
    block_size: int

    def misses_at(self, capacity_blocks: int) -> int:
        """Miss count for a fully associative LRU cache of
        ``capacity_blocks`` lines."""
        if capacity_blocks < 1:
            return self.total
        hist = self.depth_histogram
        upper = min(capacity_blocks, len(hist) - 1)
        hits = int(hist[1 : upper + 1].sum())
        return self.total - hits

    def miss_rate_at(self, capacity_bytes: int) -> float:
        """Miss rate for a cache of ``capacity_bytes`` bytes."""
        if self.total == 0:
            return 0.0
        return self.misses_at(capacity_bytes // self.block_size) / self.total

    def miss_rates(self, capacities_bytes: Sequence[int]) -> np.ndarray:
        """Vector of miss rates, one per capacity (in bytes)."""
        return np.array(
            [self.miss_rate_at(int(c)) for c in capacities_bytes], dtype=float
        )

    def misses_per_op(
        self, capacities_bytes: Sequence[int], flops: float
    ) -> np.ndarray:
        """Misses per floating-point operation — the paper's metric for
        LU, CG and FFT (Section 2.2)."""
        if flops <= 0:
            raise ValueError("flops must be positive")
        return np.array(
            [self.misses_at(int(c) // self.block_size) / flops for c in capacities_bytes],
            dtype=float,
        )

    @property
    def max_useful_capacity_blocks(self) -> int:
        """Smallest capacity (in blocks) achieving the compulsory-only
        miss rate; equals the trace footprint in blocks."""
        hist = self.depth_histogram
        nonzero = np.nonzero(hist)[0]
        return int(nonzero[-1]) if nonzero.size else 0

    @property
    def compulsory_miss_rate(self) -> float:
        """Miss rate of an infinite cache (cold misses only)."""
        return self.cold_misses / self.total if self.total else 0.0


class StackDistanceProfiler:
    """Single-pass LRU stack-distance profiler.

    Args:
        block_size: Cache line size in bytes (power of two; default one
            double word, matching the paper's accounting).
        count_reads_only: When True, only read references contribute to
            the histogram (the paper's read-miss-rate metric for
            Barnes-Hut and volume rendering) but *all* references update
            LRU state.
        warmup: Number of initial references excluded from the
            histogram (cold-start exclusion per Section 2.2); they still
            update LRU state.
    """

    def __init__(
        self,
        block_size: int = 8,
        count_reads_only: bool = False,
        warmup: int = 0,
    ) -> None:
        if block_size <= 0 or (block_size & (block_size - 1)) != 0:
            raise ValueError("block_size must be a positive power of two")
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        self.block_size = block_size
        self.count_reads_only = count_reads_only
        self.warmup = warmup

    def profile(
        self, trace: Trace, budget: Optional[Budget] = None
    ) -> StackDistanceProfile:
        """Profile a trace; returns the full stack-depth distribution.

        The trace runs the incremental engine in a single feed.

        Args:
            trace: The reference stream.
            budget: Optional wall-clock :class:`Budget` polled
                cooperatively once per chunk (defaults to the ambient
                campaign budget, if any); raises
                :class:`~repro.runtime.errors.BudgetExceeded` when the
                deadline passes.
        """
        from repro.obs import timeline as obs_timeline

        run = StackDistanceRun(
            block_size=self.block_size,
            count_reads_only=self.count_reads_only,
            warmup=self.warmup,
        )
        recorder = obs_timeline.active_recorder()
        run.feed(
            trace,
            budget=budget,
            row_refs=(
                obs_timeline.window_refs(len(trace)) if recorder is not None else None
            ),
        )
        return run.result()


class StackDistanceRun:
    """Incremental stack-distance engine with bounded, serializable state.

    Depths depend only on the *relative order* of the blocks' last
    accesses, so the whole state is the blocks in last-access order plus
    the histogram and counters: ``O(footprint)``, never ``O(trace)``.
    :meth:`state_dict` hands that state out as is, and every chunk goes
    snapshot -> ``stackdist`` kernel -> :meth:`load_state_dict`, which
    prepends the resident blocks to the chunk as synthetic references
    (see ``docs/KERNELS.md``).

    Feed chunks with :meth:`feed`; finish with :meth:`result`.
    """

    def __init__(
        self,
        block_size: int = 8,
        count_reads_only: bool = False,
        warmup: int = 0,
    ) -> None:
        if block_size <= 0 or (block_size & (block_size - 1)) != 0:
            raise ValueError("block_size must be a positive power of two")
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        self.block_size = block_size
        self.count_reads_only = count_reads_only
        self.warmup = warmup
        self._blocks: List[int] = []  # resident blocks, least recent first
        self._pos = 0  # total references fed (never resets; drives warmup)
        self._hist = np.zeros(1, dtype=np.int64)
        self._cold = 0
        self._total = 0
        # The last kernel chunk's (depth, prev), when it was asked for.
        self._links: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def refs_fed(self) -> int:
        return self._pos

    def feed(
        self,
        trace: Trace,
        budget: Optional[Budget] = None,
        row_refs: Optional[int] = None,
    ) -> None:
        """Consume one chunk of references, updating the running state.

        When a timeline recorder is active (``repro.obs.timeline``),
        the chunk also lands one row per window of ``row_refs``
        references (default: the whole chunk is one window).  The chunk
        is still fed in one pass: the kernel hands back every
        reference's depth and in-chunk previous reference, and by
        Mattson inclusion those give each window's counts, per-capacity
        misses, depth percentiles and working set exactly as feeding
        the window alone would.  The arrays are dropped as soon as the
        rows are built, and without a recorder they are never made.
        """
        from repro.obs import timeline as obs_timeline
        from repro.obs.metrics import inc

        recorder = obs_timeline.active_recorder()
        if recorder is None or len(trace) == 0:
            self._feed_impl(trace, budget=budget)
            return
        pos0 = self._pos
        footprint0 = len(self._blocks)
        t0 = time.perf_counter()
        depth, prev = self._feed_impl(trace, budget=budget, links=True)
        elapsed = time.perf_counter() - t0
        try:  # telemetry never fails the feed
            rows = self._timeline_rows(
                trace, depth, prev, pos0, footprint0, row_refs or len(trace)
            )
            del depth, prev
            share = elapsed / len(rows)
            for row in rows:
                row["elapsed_s"] = round(share, 9)
                row["refs_per_second"] = row["refs"] / share if share > 0 else None
            recorder.record_many("stackdist", rows)
        except Exception:
            inc("obs.timeline.write_errors")

    def feed_depths(
        self, trace: Trace, budget: Optional[Budget] = None
    ) -> np.ndarray:
        """Consume one chunk like :meth:`feed` and return each
        reference's stack depth (int32, 0 for a first touch).

        A fully associative LRU cache of ``C`` blocks hits exactly the
        references with ``0 < depth <= C`` (Mattson inclusion), so this
        is the one engine behind every fully associative view.  Writes
        no timeline row.
        """
        if len(trace) == 0:
            return np.zeros(0, dtype=np.int32)
        return self._feed_impl(trace, budget=budget, links=True)[0]

    def _timeline_rows(
        self,
        trace: Trace,
        depth: np.ndarray,
        prev: np.ndarray,
        pos0: int,
        footprint0: int,
        step: int,
    ) -> List[Dict[str, object]]:
        """One row per ``step``-reference window of a chunk fed from
        reference ``pos0`` on, with ``footprint0`` blocks resident.

        ``depth`` is each reference's stack depth (0 for a first touch)
        and ``prev`` the in-chunk index of the previous reference to its
        block (-1 for none).  A window's distinct blocks are its
        references whose ``prev`` falls before the window's start.
        """
        n = len(trace)
        starts = np.arange(0, n, step)
        rows_n = len(starts)
        window = np.arange(n, dtype=np.int64) // step
        counted = self._counted(trace, pos0)
        first = depth == 0
        counted_w = np.add.reduceat(counted, starts, dtype=np.int64)
        cold_w = np.add.reduceat(first & counted, starts, dtype=np.int64)
        footprint_w = footprint0 + np.cumsum(
            np.add.reduceat(first, starts, dtype=np.int64)
        )
        ws_w = np.add.reduceat(prev // step != window, starts, dtype=np.int64)
        hit = counted & ~first
        del counted, first
        hit_w = window[hit]
        hit_d = depth[hit]
        del window, hit
        # Hits within each capacity: bin every hit at the first capacity
        # of the row ladder that holds its depth, then accumulate along
        # the ladder.
        from repro.obs.timeline import STACKDIST_LADDER

        caps = np.asarray(STACKDIST_LADDER, dtype=np.int64) // self.block_size
        bins = len(caps) + 1
        per_bin = np.bincount(
            hit_w * bins + np.searchsorted(caps, hit_d), minlength=rows_n * bins
        ).reshape(rows_n, bins)
        misses_w = counted_w[:, None] - np.cumsum(per_bin[:, :-1], axis=1)
        # Depth percentiles: the ceil(q * H)-th smallest of a window's
        # H hit depths, read off one sort of (window, depth) keys.
        hits_w = np.bincount(hit_w, minlength=rows_n)
        percentiles: Dict[str, List[int]] = {}
        if hit_d.size:
            span = int(hit_d.max()) + 1
            keys = hit_w * span + hit_d
            keys.sort()
            offsets = np.cumsum(hits_w) - hits_w - 1
            base = np.arange(rows_n, dtype=np.int64) * span
            for label, q in (
                ("depth_p50", 0.50),
                ("depth_p90", 0.90),
                ("depth_p99", 0.99),
            ):
                at = offsets + np.ceil(q * hits_w).astype(np.int64)
                percentiles[label] = (
                    keys[np.maximum(at, 0)] - base
                ).tolist()
        has_hits = (hits_w > 0).tolist()
        rows: List[Dict[str, object]] = []
        for w, (start, counted_n, cold, ws, footprint, misses) in enumerate(
            zip(
                starts.tolist(),
                counted_w.tolist(),
                cold_w.tolist(),
                ws_w.tolist(),
                footprint_w.tolist(),
                misses_w.tolist(),
            )
        ):
            row: Dict[str, object] = {
                "refs": min(step, n - start),
                "counted": counted_n,
                "cold": cold,
                "block_size": self.block_size,
                "ws_blocks": ws,
                "footprint_blocks": footprint,
                "misses": misses,
            }
            if has_hits[w]:
                for label, values in percentiles.items():
                    row[label] = values[w]
            rows.append(row)
        return rows

    def _feed_impl(
        self, trace: Trace, budget: Optional[Budget] = None, links: bool = False
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Advance over one chunk on the ``stackdist`` kernel.  With
        ``links`` returns the chunk's int32 ``(depth, prev)`` (see
        :meth:`_timeline_rows`); otherwise ``None``.  A chunk outside
        the kernel's domain raises ``ValueError`` and changes nothing."""
        from repro.mem import kernels

        kernels.guard_run("stackdist", self, trace, budget=budget, links=links)
        chunk_links, self._links = self._links, None
        return chunk_links

    def _counted(self, trace: Trace, pos: int) -> np.ndarray:
        """Mask of a chunk's references that enter the histogram, for a
        chunk whose first reference is number ``pos``: past the warmup,
        and reads only when so configured."""
        n = len(trace)
        counted = np.ones(n, dtype=bool)
        counted[: max(0, min(n, self.warmup - pos))] = False
        if self.count_reads_only:
            counted &= trace.kinds == READ
        return counted

    def result(self) -> StackDistanceProfile:
        """The profile over everything fed so far (histogram trimmed)."""
        nonzero = np.nonzero(self._hist)[0]
        top = int(nonzero[-1]) if nonzero.size else 0
        return StackDistanceProfile(
            depth_histogram=self._hist[: top + 1].copy(),
            cold_misses=self._cold,
            total=self._total,
            block_size=self.block_size,
        )

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot: the parameters, the counters, the
        blocks in last-access order (least recent first) and the
        trimmed histogram."""
        nonzero = np.nonzero(self._hist)[0]
        top = int(nonzero[-1]) if nonzero.size else 0
        return {
            "block_size": self.block_size,
            "count_reads_only": self.count_reads_only,
            "warmup": self.warmup,
            "pos": self._pos,
            "cold": self._cold,
            "total": self._total,
            "blocks_by_last_access": list(self._blocks),
            "hist": self._hist[: top + 1].tolist(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot (parameters must match)."""
        for field in ("block_size", "count_reads_only", "warmup"):
            if state.get(field) != getattr(self, field):
                raise ValueError(
                    f"checkpoint {field}={state.get(field)!r} does not match "
                    f"this run's {field}={getattr(self, field)!r}"
                )
        # Every producer (state_dict, the kernel, the JSON snapshot
        # decoder) hands over Python ints: no per-block conversion.
        self._blocks = list(state["blocks_by_last_access"])
        self._pos = int(state["pos"])
        self._cold = int(state["cold"])
        self._total = int(state["total"])
        self._hist = np.asarray(state["hist"], dtype=np.int64)
        self._links = state.get("links")

def profile_trace(
    trace: Trace,
    block_size: int = 8,
    count_reads_only: bool = False,
    warmup: int = 0,
    budget: Optional[Budget] = None,
) -> StackDistanceProfile:
    """Convenience wrapper: profile ``trace`` with a fresh profiler."""
    profiler = StackDistanceProfiler(
        block_size=block_size,
        count_reads_only=count_reads_only,
        warmup=warmup,
    )
    return profiler.profile(trace, budget=budget)


def default_capacity_grid(
    min_bytes: int = 64,
    max_bytes: int = 8 * 1024 * 1024,
    points_per_octave: int = 4,
) -> np.ndarray:
    """A geometric grid of cache sizes for miss-rate sweeps.

    Mirrors the paper's log-scale cache-size axes (Figures 2, 4-7).
    """
    if min_bytes < 8:
        raise ValueError("min_bytes must be at least one double word")
    if max_bytes < min_bytes:
        raise ValueError("max_bytes must be >= min_bytes")
    octaves = np.log2(max_bytes / min_bytes)
    count = max(2, int(round(octaves * points_per_octave)) + 1)
    grid = np.unique(
        np.round(
            min_bytes * np.power(2.0, np.linspace(0.0, octaves, count))
        ).astype(np.int64)
    )
    return grid
