"""Tests for the process-local counter registry."""

from __future__ import annotations

import pytest

from repro.obs import metrics
from repro.obs.metrics import Counter, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestRegistry:
    def test_snapshot_merge_roundtrip(self):
        a = MetricsRegistry()
        a.counter("c").inc(5)
        a.counter("d").inc(2)

        b = MetricsRegistry()
        b.counter("c").inc(1)
        b.merge_snapshot(a.snapshot())
        assert b.snapshot() == {"counters": {"c": 6, "d": 2}}

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}}


class TestEnableGate:
    def test_disabled_helpers_are_noops(self):
        metrics.inc("c")
        assert metrics.get_registry().snapshot() == {"counters": {}}

    def test_enabled_helpers_record(self):
        metrics.set_obs_enabled(True)
        metrics.inc("c", 3)
        metrics.inc("c")
        assert metrics.get_registry().snapshot() == {"counters": {"c": 4}}

    def test_obs_env_variable_is_ignored(self, monkeypatch):
        """``--no-obs`` and the attempt spec's ``obs`` flag are the only
        switches: the retired ``REPRO_OBS`` variable overrides nothing."""
        monkeypatch.setenv("REPRO_OBS", "1")
        assert not metrics.obs_enabled()
        metrics.set_obs_enabled(True)
        monkeypatch.setenv("REPRO_OBS", "0")
        assert metrics.obs_enabled()


class TestKernelChunkAccounting:
    """Every kernel chunk is counted once and timed by one span."""

    @staticmethod
    def _trace(refs: int = 2048):
        import numpy as np

        from repro.mem.trace import Trace

        addrs = np.arange(refs, dtype=np.int64) * 8
        return Trace(addrs, np.zeros(refs, dtype=np.uint8))

    def _run_cache(self) -> None:
        from repro.mem.cache import FullyAssociativeCache

        FullyAssociativeCache(1024 * 8).hit_mask(self._trace())

    def test_disabled_chunk_records_nothing(self):
        self._run_cache()
        assert metrics.get_registry().snapshot() == {"counters": {}}

    def test_cache_chunk_feeds_registry_and_span(self):
        from repro.obs import tracing

        metrics.set_obs_enabled(True)
        tracer = tracing.configure(buffered=True)
        self._run_cache()
        # The cache runs on the stack-distance engine.
        assert metrics.get_registry().snapshot() == {
            "counters": {"mem.stackdist.refs": 2048, "mem.kernel.stackdist.chunks": 1}
        }
        (span,) = tracer.drain()
        assert span.name == "mem.stackdist"
        assert span.attrs == {"refs": 2048}
        assert span.dur_s >= 0

    def test_sweep_chunk_counts_every_cache(self):
        from repro.mem.setassoc import SetAssociativeCache
        from repro.obs import tracing

        metrics.set_obs_enabled(True)
        tracer = tracing.configure(buffered=True)
        caches = [SetAssociativeCache(64 * ways, associativity=ways) for ways in (1, 2, 4)]
        SetAssociativeCache.run_many(caches, self._trace(1000))
        counters = metrics.get_registry().snapshot()["counters"]
        assert counters["mem.setassoc.refs"] == 3000
        assert counters["mem.kernel.setassoc.chunks"] == 1
        (span,) = [s for s in tracer.drain() if s.name.startswith("mem.")]
        assert (span.name, span.attrs) == ("mem.setassoc", {"refs": 3000})
