"""Differential cross-checks between independent cache simulators.

A fully associative LRU miss count can be computed two independent
ways: the single-pass Mattson stack-distance profiler
(:mod:`repro.mem.stack_distance`, Fenwick tree and depth kernel), which
every fully associative view in the package reads its hits off, and an
explicit cache simulator (:class:`tests.harness.lru_oracle.OracleCache`,
an ``OrderedDict`` recency list).  They share no code beyond the trace
reader, so running both on the same trace and demanding *exact*
agreement at every sampled capacity catches implementation drift in
either — an off-by-one in eviction, a warmup accounting slip, a Fenwick
indexing bug — that no single-simulator test can see.

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

from repro.mem.setassoc import SetAssociativeCache
from repro.mem.stack_distance import StackDistanceProfiler
from repro.mem.trace import Trace
from repro.validate.oracles import validate_profile
from repro.validate.report import ValidationReport
from tests.harness.lru_oracle import OracleCache

#: Default associativities exercised by the lower-bound check.
DEFAULT_ASSOCIATIVITIES = (1, 2, 4)


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

    Returns:
        A :class:`~repro.validate.report.ValidationReport` whose error
        findings use codes ``differential-mismatch``,
        ``setassoc-inclusion``, and ``setassoc-below-cold-floor`` (plus
        any profile-oracle codes).
    """
    report = ValidationReport(subject=f"differential {subject}")
    if capacities_bytes is None:
        capacities_bytes = default_check_capacities(trace, block_size)

    profile = StackDistanceProfiler(block_size=block_size).profile(trace)
    report.extend(validate_profile(profile, trace=trace, subject=subject))
    footprint = int(trace.footprint(block_size))

    for capacity in capacities_bytes:
        capacity = int(capacity)
        predicted = profile.misses_at(capacity // block_size)
        simulated = OracleCache(capacity, block_size).run(trace).misses
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


def cross_check_corpus(
    names: Optional[Iterable[str]] = None,
) -> ValidationReport:
    """Run :func:`cross_check_trace` over the pinned trace corpus.

    Args:
        names: Corpus entry names to check (default: all five apps).
    """
    from tests.harness.corpus import CORPUS, corpus_entry
    from repro.validate.report import merge_reports

    entries = (
        list(CORPUS) if names is None else [corpus_entry(n) for n in names]
    )
    reports = []
    for entry in entries:
        trace = entry.build()
        reports.append(cross_check_trace(trace, subject=entry.name))
    return merge_reports("differential corpus", reports)
