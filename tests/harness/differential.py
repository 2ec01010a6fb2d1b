"""Differential cross-checks between independent cache simulators.

The repository has two ways of computing a fully associative LRU miss
count: the single-pass Mattson stack-distance profiler
(:mod:`repro.mem.stack_distance`, Fenwick-tree based) and the explicit
cache simulator (:mod:`repro.mem.cache`, LRU-list based).  They share
no code beyond the trace reader, so running both on the same trace and
demanding *exact* agreement at every sampled capacity catches
implementation drift in either — an off-by-one in eviction, a warmup
accounting slip, a Fenwick indexing bug — that no single-simulator test
can see.

Two further invariants tie in the limited-associativity simulator used
for the paper's Section 6.4 study:

- **per-set inclusion**: with the set count held fixed, each set sees
  the same reference substream regardless of associativity, so LRU
  stack inclusion applies set-by-set and the miss count is monotone
  non-increasing in the number of ways;
- **compulsory floor**: any cache, whatever its organization, must
  miss at least once per distinct block in the trace.

Note what is deliberately *not* checked: "set-associative misses are
bounded below by fully associative misses at equal capacity" is a
tempting invariant but a false one — LRU is not Belady-optimal, and a
partitioned cache can retain blocks that fully associative LRU evicts
(streaming sweeps slightly larger than the cache are the classic
case).  Running that check against this repository's own trace corpus
refutes it on every application, which is itself a useful property of
the corpus: the differential harness distinguishes true invariants
from folklore.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.mem.cache import FullyAssociativeCache
from repro.mem.setassoc import SetAssociativeCache
from repro.mem.stack_distance import StackDistanceProfiler
from repro.mem.trace import Trace
from repro.validate.oracles import validate_profile
from repro.validate.report import ValidationReport

#: Default associativities exercised by the lower-bound check.
DEFAULT_ASSOCIATIVITIES = (1, 2, 4)


def _kernel_tier_scope(kernel_tier: Optional[str]):
    """Context manager pinning the simulation kernel tier for one check.

    ``kernel_tier="oracle"`` forces the pure-Python reference loops,
    ``"vector"`` forces the vectorized kernels,
    and ``None`` leaves the ambient :mod:`repro.mem.kernels`
    configuration untouched — so existing callers see no behaviour
    change.
    """
    import contextlib

    if kernel_tier is None:
        return contextlib.nullcontext()
    from repro.mem import kernels

    return kernels.tier_override(kernel_tier)


def default_check_capacities(
    trace: Trace, block_size: int = 8, points: int = 6
) -> List[int]:
    """Sample capacities (bytes) spanning one block to past the
    trace footprint — the region where miss counts actually vary."""
    footprint_blocks = max(int(trace.footprint(block_size)), 1)
    grid = {1, 2}
    for fraction in np.linspace(0.25, 1.25, max(points - 2, 1)):
        grid.add(max(int(round(footprint_blocks * fraction)), 1))
    return sorted(blocks * block_size for blocks in grid)


def cross_check_trace(
    trace: Trace,
    capacities_bytes: Optional[Sequence[int]] = None,
    block_size: int = 8,
    associativities: Iterable[int] = DEFAULT_ASSOCIATIVITIES,
    subject: str = "trace",
    kernel_tier: Optional[str] = None,
) -> ValidationReport:
    """Cross-check the Mattson profiler against explicit simulation.

    At every sampled capacity the profiler's predicted miss count must
    equal the explicit fully associative simulator's *exactly* (both
    model ideal LRU; any discrepancy is a bug, not noise).  The
    set-associative simulator is then checked against per-set LRU
    inclusion (fixed set count, misses non-increasing in ways) and the
    compulsory-miss floor.

    Args:
        trace: The reference stream to replay.
        capacities_bytes: Capacities to sample (default:
            :func:`default_check_capacities`).
        block_size: Line size in bytes for all three instruments.
        associativities: Ways for the inclusion chain (ascending).
        subject: Label for the returned report.
        kernel_tier: ``"vector"``/``"oracle"`` to pin the simulation
            kernel tier for the whole check; None keeps the ambient
            :mod:`repro.mem.kernels` configuration.

    Returns:
        A :class:`~repro.validate.report.ValidationReport` whose error
        findings use codes ``differential-mismatch``,
        ``setassoc-inclusion``, and ``setassoc-below-cold-floor`` (plus
        any profile-oracle codes).
    """
    if kernel_tier is not None:
        with _kernel_tier_scope(kernel_tier):
            return cross_check_trace(
                trace,
                capacities_bytes=capacities_bytes,
                block_size=block_size,
                associativities=associativities,
                subject=subject,
            )
    report = ValidationReport(subject=f"differential {subject}")
    if capacities_bytes is None:
        capacities_bytes = default_check_capacities(trace, block_size)

    profile = StackDistanceProfiler(block_size=block_size).profile(trace)
    report.extend(validate_profile(profile, trace=trace, subject=subject))
    footprint = int(trace.footprint(block_size))

    for capacity in capacities_bytes:
        capacity = int(capacity)
        predicted = profile.misses_at(capacity // block_size)
        cache = FullyAssociativeCache(capacity, block_size)
        simulated = cache.run(trace).misses
        report.tick()
        if predicted != simulated:
            report.add(
                "differential-mismatch",
                f"capacity {capacity} B: Mattson profiler predicts "
                f"{predicted} misses but explicit simulation counts "
                f"{simulated}",
            )
            continue
        # Per-set inclusion chain: hold the set count at this capacity's
        # block count and widen each set — same index stream, larger
        # per-set LRU stacks, so misses must not increase.  One cache
        # per call: a sweep would score the chain from one shared depth
        # pass, restating inclusion instead of checking the kernel.
        num_sets = capacity // block_size
        previous = None
        for ways in sorted(set(int(w) for w in associativities)):
            if ways < 1:
                continue
            sa = SetAssociativeCache(
                num_sets * ways * block_size,
                block_size=block_size,
                associativity=ways,
            )
            sa_misses = sa.run(trace).misses
            report.tick()
            if sa_misses < footprint:
                report.add(
                    "setassoc-below-cold-floor",
                    f"{num_sets} sets x {ways} ways: {sa_misses} misses "
                    f"below the compulsory floor of {footprint} distinct "
                    "blocks",
                )
            if previous is not None and sa_misses > previous[1]:
                report.add(
                    "setassoc-inclusion",
                    f"{num_sets} sets: widening {previous[0]} -> {ways} "
                    f"ways increased misses {previous[1]} -> {sa_misses}, "
                    "violating per-set LRU inclusion",
                )
            previous = (ways, sa_misses)
    return report


def cross_check_streamed(
    trace: Trace,
    work_dir,
    capacities_bytes: Optional[Sequence[int]] = None,
    block_size: int = 8,
    shard_refs: Optional[int] = None,
    subject: str = "trace",
    kernel_tier: Optional[str] = None,
) -> ValidationReport:
    """Demand EXACT agreement between streamed and in-memory paths.

    Shards ``trace`` into a multi-shard ``.trd`` directory under
    ``work_dir`` and replays all three simulators both ways.  Every
    comparison is exact — same misses, same histograms, same columns —
    because the streamed path feeds the identical hot loops chunk-wise;
    any divergence is a bug in the shard substrate, never noise.

    Error findings use the code ``streaming-mismatch``.
    ``kernel_tier`` pins the simulation kernel tier for both paths
    (see :func:`cross_check_trace`).
    """
    from pathlib import Path

    from repro.mem.shards import StreamingTraceBuilder

    if kernel_tier is not None:
        with _kernel_tier_scope(kernel_tier):
            return cross_check_streamed(
                trace,
                work_dir,
                capacities_bytes=capacities_bytes,
                block_size=block_size,
                shard_refs=shard_refs,
                subject=subject,
            )
    report = ValidationReport(subject=f"streaming {subject}")
    if capacities_bytes is None:
        capacities_bytes = default_check_capacities(trace, block_size)
    if shard_refs is None:
        # Force a genuinely multi-shard layout so chunk boundaries and
        # cross-shard state carry are actually exercised.
        shard_refs = max(len(trace) // 7, 1)

    builder = StreamingTraceBuilder(
        Path(work_dir) / f"{subject}.trd", shard_refs=shard_refs
    )
    builder.extend_arrays(trace.addrs, trace.kinds)
    streamed = builder.build()

    report.tick()
    if len(streamed) != len(trace) or not (
        np.array_equal(streamed.load().addrs, trace.addrs)
        and np.array_equal(streamed.load().kinds, trace.kinds)
    ):
        report.add(
            "streaming-mismatch",
            f"shard round-trip altered the reference stream "
            f"({len(trace)} refs in, {len(streamed)} out)",
        )
        return report

    profiler = StackDistanceProfiler(block_size=block_size)
    profile_mem = profiler.profile(trace)
    profile_str = profiler.profile(streamed)
    report.tick()
    if not (
        np.array_equal(
            profile_mem.depth_histogram, profile_str.depth_histogram
        )
        and profile_mem.cold_misses == profile_str.cold_misses
        and profile_mem.total == profile_str.total
    ):
        report.add(
            "streaming-mismatch",
            "streamed stack-distance profile differs from in-memory "
            f"(cold {profile_str.cold_misses} vs {profile_mem.cold_misses}, "
            f"total {profile_str.total} vs {profile_mem.total})",
        )

    for capacity in capacities_bytes:
        capacity = int(capacity)
        stats_mem = FullyAssociativeCache(capacity, block_size).run(trace)
        stats_str = FullyAssociativeCache(capacity, block_size).run(streamed)
        report.tick()
        if (
            stats_mem.reads,
            stats_mem.writes,
            stats_mem.read_misses,
            stats_mem.write_misses,
            stats_mem.cold_misses,
        ) != (
            stats_str.reads,
            stats_str.writes,
            stats_str.read_misses,
            stats_str.write_misses,
            stats_str.cold_misses,
        ):
            report.add(
                "streaming-mismatch",
                f"capacity {capacity} B: streamed fully associative stats "
                f"({stats_str.misses} misses) differ from in-memory "
                f"({stats_mem.misses} misses)",
            )
        num_blocks = max(capacity // block_size, 1)
        for ways in (1, 2):
            if num_blocks % ways:
                continue
            sa_mem = SetAssociativeCache(
                capacity, block_size=block_size, associativity=ways
            ).run(trace)
            sa_str = SetAssociativeCache(
                capacity, block_size=block_size, associativity=ways
            ).run(streamed)
            report.tick()
            if (sa_mem.misses, sa_mem.cold_misses) != (
                sa_str.misses,
                sa_str.cold_misses,
            ):
                report.add(
                    "streaming-mismatch",
                    f"capacity {capacity} B x {ways} way(s): streamed "
                    f"set-associative misses {sa_str.misses} differ from "
                    f"in-memory {sa_mem.misses}",
                )
    return report


def cross_check_corpus(
    names: Optional[Iterable[str]] = None,
    streamed_work_dir=None,
    kernel_tier: Optional[str] = None,
) -> ValidationReport:
    """Run :func:`cross_check_trace` over the pinned trace corpus.

    Args:
        names: Corpus entry names to check (default: all five apps).
        streamed_work_dir: When given, additionally run
            :func:`cross_check_streamed` for every entry, sharding into
            this directory — the acceptance oracle that the streamed
            simulators agree exactly with the in-memory path.
        kernel_tier: ``"vector"``/``"oracle"`` to pin the simulation
            kernel tier for every check; None keeps the ambient
            :mod:`repro.mem.kernels` configuration.
    """
    from tests.harness.corpus import CORPUS, corpus_entry
    from repro.validate.report import merge_reports

    entries = (
        list(CORPUS) if names is None else [corpus_entry(n) for n in names]
    )
    reports = []
    for entry in entries:
        trace = entry.build()
        reports.append(
            cross_check_trace(
                trace, subject=entry.name, kernel_tier=kernel_tier
            )
        )
        if streamed_work_dir is not None:
            reports.append(
                cross_check_streamed(
                    trace,
                    streamed_work_dir,
                    subject=entry.name,
                    kernel_tier=kernel_tier,
                )
            )
    return merge_reports("differential corpus", reports)
