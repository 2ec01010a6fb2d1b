"""One-pass ``stackdist`` timeline rows against the window-by-window
oracle in :mod:`tests.obs.stackdist_rows_oracle`, on the kernel
(``"vector"``) and on the per-reference loop (``"oracle"``).

The profiler feeds a trace once and derives every window's row from the
per-reference depths and previous-reference links; the oracle feeds the
windows one by one and diffs the histogram.  Every content field must
agree: counts, cold misses, per-capacity misses and working set.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import kernels
from repro.mem.stack_distance import StackDistanceProfiler, StackDistanceRun
from repro.mem.trace import READ, WRITE, Trace
from repro.obs import metrics as obs_metrics
from repro.obs import timeline as tl
from tests.harness.loops import loops_only
from tests.obs.stackdist_rows_oracle import windowed_rows

#: Row fields that do not come from the trace: framing.
NOT_CONTENT = ("v", "kind", "seq", "pid", "t_wall")

TIERS = st.sampled_from(["vector", "oracle"])
BLOCK_SIZES = st.sampled_from([8, 16, 32, 64, 128])


def _trace(seed: int, refs: int, words: int) -> Trace:
    """A hot set mixed with a wide sweep, so that depths spread over
    the capacity grid; reads and writes interleave."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, max(1, words // 16), size=refs)
    wide = rng.integers(0, words, size=refs)
    addrs = np.where(rng.random(refs) < 0.6, hot, wide).astype(np.int64) * 8
    kinds = np.where(rng.random(refs) < 0.7, READ, WRITE).astype(np.uint8)
    return Trace(addrs, kinds)


def _recorded(trace, tier: str, row_refs: int, **params):
    """Feed ``trace`` in one pass with a recorder on, one row per
    ``row_refs`` references; returns the profile and its rows' content
    fields."""
    obs_metrics.set_obs_enabled(True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / tl.TIMELINE_FILENAME
        tl.configure_timeline(path)
        try:
            with loops_only(tier == "oracle"):
                run = StackDistanceRun(**params)
                run.feed(trace, row_refs=row_refs)
                profile = run.result()
        finally:
            tl.configure_timeline(None)
        rows = tl.read_timeline(path)
    content = [{k: v for k, v in row.items() if k not in NOT_CONTENT} for row in rows]
    return profile, content


def _same_profile(a, b) -> None:
    assert (a.total, a.cold_misses) == (b.total, b.cold_misses)
    np.testing.assert_array_equal(a.depth_histogram, b.depth_histogram)


class TestOnePassRowsEqualWindowedRows:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        refs=st.integers(1, 6000),
        words=st.integers(1, 4000),
        block_size=BLOCK_SIZES,
        count_reads_only=st.booleans(),
        warmup=st.integers(0, 8000),
        step=st.integers(16, 3000),
        tier=TIERS,
    )
    def test_in_memory(
        self, seed, refs, words, block_size, count_reads_only, warmup, step, tier
    ):
        trace = _trace(seed, refs, words)
        params = dict(
            block_size=block_size, count_reads_only=count_reads_only, warmup=warmup
        )
        expected = windowed_rows(trace, step, **params)
        profile, rows = _recorded(trace, tier, step, **params)
        assert rows == expected
        _same_profile(profile, StackDistanceProfiler(**params).profile(trace))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        refs=st.integers(1, 4000),
        extra=st.integers(0, 500),
        block_size=BLOCK_SIZES,
        warmup=st.integers(0, 3000),
        tier=TIERS,
    )
    def test_step_covering_the_trace_gives_one_row(
        self, seed, refs, extra, block_size, warmup, tier
    ):
        trace = _trace(seed, refs, 1500)
        params = dict(block_size=block_size, warmup=warmup)
        _, rows = _recorded(trace, tier, refs + extra, **params)
        assert len(rows) == 1
        assert rows == windowed_rows(trace, refs + extra, **params)


class TestLinks:
    """The per-reference arrays exist only while a recorder needs them."""

    def _spy(self):
        seen = []
        kernel = kernels.KERNELS["stackdist"]

        def spy(state, blocks, kinds, **options):
            post = kernel(state, blocks, kinds, **options)
            seen.append("links" in post)
            return post

        return seen, mock.patch.dict(kernels.KERNELS, {"stackdist": spy})

    def test_kernel_hands_back_links_only_under_a_recorder(self, tmp_path):
        trace = _trace(3, 5000, 900)
        seen, patch = self._spy()
        obs_metrics.set_obs_enabled(True)
        with patch:
            run = StackDistanceRun()
            run.feed(trace)
            tl.configure_timeline(tmp_path / tl.TIMELINE_FILENAME)
            run.feed(trace)
            tl.configure_timeline(None)
        assert seen == [False, True]
        assert run._links is None
        assert len(tl.read_timeline(tmp_path / tl.TIMELINE_FILENAME)) == 1

    def test_tiers_hand_back_the_same_links(self):
        warm, trace = _trace(4, 1000, 900), _trace(5, 5000, 900)
        links = {}
        for tier in ("vector", "oracle"):
            run = StackDistanceRun(block_size=32)
            with loops_only(tier == "oracle"):
                run.feed(warm)
                links[tier] = run._feed_impl(trace, links=True)
        for got, want in zip(links["vector"], links["oracle"]):
            assert got.dtype == want.dtype == np.int32
            np.testing.assert_array_equal(got, want)
