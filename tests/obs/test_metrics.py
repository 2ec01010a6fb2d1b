"""Tests for the process-local metrics registry."""

from __future__ import annotations

import pytest

from repro.obs import metrics
from repro.obs.metrics import Counter, Histogram, LoopSampler, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(3.0)
        g.set(7.0)
        g.add(1.0)
        assert reg.snapshot()["gauges"]["g"] == 8.0

    def test_histogram_bucket_placement(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            h.observe(value)
        # <=1.0 twice (0.5 and the boundary value), <=10.0 once, +Inf once.
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.total == pytest.approx(106.5)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_histogram_merge_rejects_different_boundaries(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            h.merge({"buckets": [1.0, 3.0], "counts": [0, 0, 0], "sum": 0, "count": 0})


class TestRegistry:
    def test_snapshot_merge_roundtrip(self):
        a = MetricsRegistry()
        a.counter("c").inc(5)
        a.gauge("g").set(2.5)
        a.histogram("h", (1.0,)).observe(0.5)

        b = MetricsRegistry()
        b.counter("c").inc(1)
        b.merge_snapshot(a.snapshot())
        snap = b.snapshot()
        assert snap["counters"]["c"] == 6
        assert snap["gauges"]["g"] == 2.5
        assert snap["histograms"]["h"]["counts"] == [1, 0]
        assert snap["histograms"]["h"]["count"] == 1

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestEnableGate:
    def test_disabled_helpers_are_noops(self):
        metrics.inc("c")
        metrics.set_gauge("g", 1.0)
        metrics.observe("h", 0.5)
        snap = metrics.get_registry().snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_enabled_helpers_record(self):
        metrics.set_obs_enabled(True)
        metrics.inc("c", 3)
        metrics.set_gauge("g", 1.5)
        with metrics.timed("t"):
            pass
        snap = metrics.get_registry().snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 1.5
        assert snap["histograms"]["t"]["count"] == 1

    def test_obs_env_variable_is_ignored(self, monkeypatch):
        """``--no-obs`` and the attempt spec's ``obs`` flag are the only
        switches: the retired ``REPRO_OBS`` variable overrides nothing."""
        monkeypatch.setenv("REPRO_OBS", "1")
        assert not metrics.obs_enabled()
        metrics.set_obs_enabled(True)
        monkeypatch.setenv("REPRO_OBS", "0")
        assert metrics.obs_enabled()


class TestLoopSampler:
    def test_hot_loop_sampler_none_when_disabled(self):
        assert metrics.hot_loop_sampler("mem.x") is None

    def test_finish_records_totals_and_throughput(self):
        metrics.set_obs_enabled(True)
        ticks = iter([0.0, 2.0])
        sampler = LoopSampler("mem.x", clock=lambda: next(ticks))
        sampler.finish(refs=1000, misses=10)
        snap = metrics.get_registry().snapshot()
        assert snap["counters"]["mem.x.refs"] == 1000
        assert snap["counters"]["mem.x.misses"] == 10
        assert snap["counters"]["mem.x.loops"] == 1
        assert snap["gauges"]["mem.x.last_refs_per_second"] == pytest.approx(500.0)

    def test_cache_hot_loop_feeds_registry(self):
        import numpy as np

        from repro.mem.cache import FullyAssociativeCache
        from repro.mem.trace import Trace

        metrics.set_obs_enabled(True)
        addrs = np.arange(2048, dtype=np.int64) * 8
        trace = Trace(addrs, np.zeros(2048, dtype=np.uint8))
        FullyAssociativeCache(1024 * 8).run(trace)
        snap = metrics.get_registry().snapshot()
        assert snap["counters"]["mem.fullassoc.refs"] == 2048
        assert snap["counters"]["mem.fullassoc.loops"] == 1
