"""Differential cross-checks: Mattson profiler vs explicit simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mem.trace import Trace, TraceBuilder
from repro.validate.corpus import CORPUS, build_corpus, corpus_entry
from repro.validate.differential import (
    cross_check_corpus,
    cross_check_trace,
    default_check_capacities,
)


def sweep_trace(blocks: int = 20, sweeps: int = 3) -> Trace:
    tb = TraceBuilder()
    for _ in range(sweeps):
        for block in range(blocks):
            tb.read(8 * block)
    return tb.build()


class TestCrossCheckTrace:
    def test_clean_sweep_trace_passes(self):
        report = cross_check_trace(sweep_trace(), subject="sweep")
        assert report.ok, report.render()

    def test_random_trace_passes(self):
        rng = np.random.default_rng(42)
        tb = TraceBuilder()
        for addr in rng.integers(0, 512, size=2000):
            if rng.random() < 0.3:
                tb.write(int(addr) * 8)
            else:
                tb.read(int(addr) * 8)
        report = cross_check_trace(tb.build(), subject="random")
        assert report.ok, report.render()

    def test_capacities_default_spans_footprint(self):
        trace = sweep_trace(blocks=20)
        capacities = default_check_capacities(trace, block_size=8)
        assert min(capacities) == 8
        # At least one point past the 20-block footprint.
        assert max(capacities) >= 20 * 8

    def test_mismatch_is_reported(self, monkeypatch):
        """Sabotage the explicit simulator and verify the harness sees it."""
        from repro.mem import cache as cache_mod
        from repro.validate import differential

        class FakeStats:
            def __init__(self, misses):
                self.misses = misses

        class OffByOne(cache_mod.FullyAssociativeCache):
            def run(self, trace):
                return FakeStats(super().run(trace).misses + 1)

        monkeypatch.setattr(
            differential, "FullyAssociativeCache", OffByOne
        )
        report = cross_check_trace(sweep_trace(), subject="sabotaged")
        assert "differential-mismatch" in report.codes()

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_every_corpus_app_agrees_exactly(self, entry):
        """The headline acceptance check: profiler and simulator agree
        exactly on real traces from all five applications."""
        report = cross_check_trace(entry.build(), subject=entry.name)
        assert report.ok, report.render()


class TestCorpus:
    def test_corpus_has_all_five_apps(self):
        assert sorted(e.app for e in CORPUS) == [
            "barnes-hut",
            "cg",
            "fft",
            "lu",
            "volrend",
        ]

    def test_corpus_entry_lookup(self):
        assert corpus_entry("lu-n32-b8-p4").app == "lu"
        with pytest.raises(KeyError, match="known"):
            corpus_entry("missing")

    def test_build_corpus_is_deterministic(self):
        first = build_corpus()
        second = build_corpus()
        for name, trace in first.items():
            assert np.array_equal(trace.addrs, second[name].addrs), name
            assert np.array_equal(trace.kinds, second[name].kinds), name

    def test_cross_check_corpus_subset(self):
        report = cross_check_corpus(names=["cg-n16-p4"])
        assert report.ok, report.render()
        assert report.checks_run > 0


class TestStreamedDifferential:
    """Streamed simulators must agree EXACTLY with in-memory ones."""

    def test_random_trace_exact_agreement(self, tmp_path):
        from repro.validate.differential import cross_check_streamed
        from tests.conftest import random_trace

        report = cross_check_streamed(
            random_trace(3000, 400, seed=13), tmp_path, subject="random"
        )
        assert report.ok, report.render()
        assert report.checks_run > 5

    def test_sabotaged_shard_order_detected(self, tmp_path, monkeypatch):
        """Swap two shards during chunk iteration: the oracle notices."""
        from repro.mem.shards import StreamingTrace
        from repro.validate.differential import cross_check_streamed
        from tests.conftest import random_trace

        original = StreamingTrace.iter_chunks

        def swapped(self, start_shard=0):
            chunks = list(original(self, start_shard))
            if len(chunks) >= 2:
                chunks[0], chunks[1] = chunks[1], chunks[0]
            return iter(chunks)

        monkeypatch.setattr(StreamingTrace, "iter_chunks", swapped)
        report = cross_check_streamed(
            random_trace(2000, 300, seed=14), tmp_path, subject="sabotaged"
        )
        assert "streaming-mismatch" in report.codes()

    def test_corpus_entry_streams_exactly(self, tmp_path):
        """One real application trace through the streamed oracle; the
        full five-app sweep runs in CI via ``cross_check_corpus``."""
        entry = corpus_entry("cg-n16-p4")
        from repro.validate.differential import cross_check_streamed

        report = cross_check_streamed(
            entry.build(), tmp_path, subject=entry.name
        )
        assert report.ok, report.render()

    def test_cross_check_corpus_streamed_subset(self, tmp_path):
        report = cross_check_corpus(
            names=["lu-n32-b8-p4"], streamed_work_dir=tmp_path
        )
        assert report.ok, report.render()


class TestKernelTier:
    """The kernel_tier= parameter pins the simulation kernel tier."""

    @pytest.fixture(autouse=True)
    def _clean_kernels(self, monkeypatch):
        from repro.mem import kernels

        monkeypatch.setattr(kernels, "MIN_REFS", 0)
        kernels.clear_kernels(clear_env=False)
        yield
        kernels.clear_kernels(clear_env=False)

    def test_vector_tier_engages_and_passes(self, kernel_calls):
        from tests.conftest import random_trace

        trace = random_trace(2_000, 64, seed=9)
        report = cross_check_trace(trace, kernel_tier="vector")
        assert report.ok
        assert sum(kernel_calls.values()) > 0

    def test_oracle_tier_never_engages(self, kernel_calls):
        from tests.conftest import random_trace

        trace = random_trace(2_000, 64, seed=9)
        report = cross_check_trace(trace, kernel_tier="oracle")
        assert report.ok
        assert sum(kernel_calls.values()) == 0

    def test_ambient_config_restored_after_check(self):
        from repro.mem import kernels

        from tests.conftest import random_trace

        before = kernels.active_kernel_config().tier
        cross_check_trace(
            random_trace(500, 32, seed=1), kernel_tier="oracle"
        )
        assert kernels.active_kernel_config().tier == before

    def test_streamed_check_accepts_kernel_tier(self, tmp_path):
        from repro.validate.differential import cross_check_streamed
        from tests.conftest import random_trace

        trace = random_trace(1_000, 32, seed=4)
        report = cross_check_streamed(
            trace, tmp_path, kernel_tier="vector", subject="tiered"
        )
        assert report.ok
