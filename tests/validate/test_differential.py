"""Differential cross-checks: Mattson profiler vs explicit simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mem.trace import Trace

from tests.harness.builder import ReferenceBuilder
from tests.harness.corpus import CORPUS, build_corpus, corpus_entry
from tests.harness.differential import (
    cross_check_corpus,
    cross_check_trace,
    default_check_capacities,
)
from tests.harness.loops import loops_only


def sweep_trace(blocks: int = 20, sweeps: int = 3) -> Trace:
    tb = ReferenceBuilder()
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
        tb = ReferenceBuilder()
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
        from tests.harness import differential, lru_oracle

        class FakeStats:
            def __init__(self, misses):
                self.misses = misses

        class OffByOne(lru_oracle.OracleCache):
            def run(self, trace):
                return FakeStats(super().run(trace).misses + 1)

        monkeypatch.setattr(differential, "OracleCache", OffByOne)
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


class TestKernelTier:
    """The checks pass on the kernels and, inside ``loops_only``, on the
    per-reference loops."""

    def test_vector_tier_engages_and_passes(self, kernel_calls):
        from tests.conftest import random_trace

        trace = random_trace(2_000, 64, seed=9)
        report = cross_check_trace(trace)
        assert report.ok
        assert sum(kernel_calls.values()) > 0

    def test_oracle_tier_never_engages(self, kernel_calls):
        from tests.conftest import random_trace

        trace = random_trace(2_000, 64, seed=9)
        with loops_only():
            report = cross_check_trace(trace)
        assert report.ok
        assert sum(kernel_calls.values()) == 0

    def test_ambient_config_restored_after_check(self):
        from repro.mem import kernels

        from tests.conftest import random_trace

        guard = kernels.guard_run
        with loops_only():
            cross_check_trace(random_trace(500, 32, seed=1))
        assert kernels.guard_run is guard

