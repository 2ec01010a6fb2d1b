"""Tests for chunk-wise simulation with mid-run checkpoint/resume.

The acceptance property is *crash equivalence*: interrupt a streamed
simulation at any shard boundary (or mid-shard — the checkpoint then
simply points at the previous boundary), restart it against the same
checkpoint path, and the final answer must be byte-identical to an
uninterrupted run.  The interruptions here are real injected I/O
faults at the ``simckpt`` write site, not hand-built state.
"""

import numpy as np
import pytest

from repro.mem import kernels
from repro.mem.cache import FullyAssociativeCache
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.setassoc import SetAssociativeCache
from repro.mem.shards import (
    StreamingTraceBuilder,
    clear_streaming,
    configure_streaming,
    load_sim_checkpoint,
)
from repro.mem.stack_distance import StackDistanceProfiler
from repro.mem.streamsim import (
    checkpoint_key,
    default_checkpoint_path,
    profile_streamed,
    run_cache_streamed,
    run_hierarchy_streamed,
    run_setassoc_streamed,
)
from repro.runtime.iofault import IOFaultInjector, install
from repro.runtime.journal import read_journal
from tests.conftest import random_trace

NUM_SHARDS = 5


@pytest.fixture
def streamed(tmp_path):
    trace = random_trace(1500, 200, seed=21)
    builder = StreamingTraceBuilder(tmp_path / "t.trd", shard_refs=300)
    builder.extend_arrays(trace.addrs, trace.kinds)
    out = builder.build()
    assert out.num_shards == NUM_SHARDS
    return trace, out


def fullassoc_stats(sim_stats):
    return (
        sim_stats.reads,
        sim_stats.writes,
        sim_stats.read_misses,
        sim_stats.write_misses,
        sim_stats.cold_misses,
    )


class TestStreamedEqualsInMemory:
    def test_fullassoc(self, streamed):
        trace, out = streamed
        mem = FullyAssociativeCache(512, 8).run(trace)
        srm = FullyAssociativeCache(512, 8).run(out)
        assert fullassoc_stats(mem) == fullassoc_stats(srm)

    def test_setassoc(self, streamed):
        trace, out = streamed
        mem = SetAssociativeCache(1024, block_size=8, associativity=2).run(
            trace
        )
        srm = SetAssociativeCache(1024, block_size=8, associativity=2).run(
            out
        )
        assert fullassoc_stats(mem) == fullassoc_stats(srm)

    def test_profiler(self, streamed):
        trace, out = streamed
        mem = StackDistanceProfiler(block_size=8, warmup=100).profile(trace)
        srm = StackDistanceProfiler(block_size=8, warmup=100).profile(out)
        np.testing.assert_array_equal(
            mem.depth_histogram, srm.depth_histogram
        )
        assert mem.cold_misses == srm.cold_misses
        assert mem.total == srm.total


class TestCrashResume:
    """Interrupt via injected faults; resume must be byte-identical."""

    @pytest.mark.parametrize("fail_at", range(1, NUM_SHARDS + 1))
    def test_fullassoc_resume_at_every_boundary(
        self, streamed, tmp_path, fail_at
    ):
        trace, out = streamed
        reference = fullassoc_stats(FullyAssociativeCache(512, 8).run(trace))
        path = tmp_path / "fa.ckpt"
        # Interrupted attempt: the checkpoint write after chunk
        # ``fail_at - 1`` fails, so the last durable boundary is
        # ``fail_at - 1`` (zero boundaries when the first write dies —
        # the mid-shard/no-checkpoint case: restart from shard zero).
        plan = IOFaultInjector.parse(f"simckpt:write:enospc:{fail_at}")
        with install(plan):
            with pytest.raises(OSError):
                run_cache_streamed(
                    FullyAssociativeCache(512, 8), out, checkpoint_path=path
                )
        ckpt = load_sim_checkpoint(path)
        if fail_at == 1:
            assert ckpt is None
        else:
            assert ckpt["next_shard"] == fail_at - 1
        resumed = run_cache_streamed(
            FullyAssociativeCache(512, 8), out, checkpoint_path=path
        )
        assert fullassoc_stats(resumed) == reference
        assert load_sim_checkpoint(path)["next_shard"] == NUM_SHARDS

    @pytest.mark.parametrize("fail_at", [2, NUM_SHARDS])
    def test_setassoc_resume(self, streamed, tmp_path, fail_at):
        trace, out = streamed
        reference = fullassoc_stats(
            SetAssociativeCache(1024, block_size=8, associativity=2).run(
                trace
            )
        )
        path = tmp_path / "sa.ckpt"
        with install(
            IOFaultInjector.parse(f"simckpt:write:enospc:{fail_at}")
        ):
            with pytest.raises(OSError):
                run_setassoc_streamed(
                    SetAssociativeCache(1024, block_size=8, associativity=2),
                    out,
                    checkpoint_path=path,
                )
        resumed = run_setassoc_streamed(
            SetAssociativeCache(1024, block_size=8, associativity=2),
            out,
            checkpoint_path=path,
        )
        assert fullassoc_stats(resumed) == reference

    @pytest.mark.parametrize("fail_at", [1, 3, NUM_SHARDS])
    def test_profiler_resume(self, streamed, tmp_path, fail_at):
        trace, out = streamed
        reference = StackDistanceProfiler(block_size=8, warmup=50).profile(
            trace
        )
        path = tmp_path / "sd.ckpt"
        with install(
            IOFaultInjector.parse(f"simckpt:write:enospc:{fail_at}")
        ):
            with pytest.raises(OSError):
                profile_streamed(
                    StackDistanceProfiler(block_size=8, warmup=50),
                    out,
                    checkpoint_path=path,
                )
        resumed = profile_streamed(
            StackDistanceProfiler(block_size=8, warmup=50),
            out,
            checkpoint_path=path,
        )
        np.testing.assert_array_equal(
            reference.depth_histogram, resumed.depth_histogram
        )
        assert reference.cold_misses == resumed.cold_misses
        assert reference.total == resumed.total

    def test_resume_counts_in_metrics(self, streamed, tmp_path, monkeypatch):
        """A resumed run bumps the ``mem.stream.resumes`` counter."""
        from repro.obs import metrics as obs_metrics

        _, out = streamed
        path = tmp_path / "skip.ckpt"
        with install(IOFaultInjector.parse("simckpt:write:enospc:4")):
            with pytest.raises(OSError):
                run_cache_streamed(
                    FullyAssociativeCache(512, 8), out, checkpoint_path=path
                )
        monkeypatch.delenv(obs_metrics.OBS_ENV, raising=False)
        obs_metrics.set_obs_enabled(True)
        try:
            registry = obs_metrics.get_registry()
            before = registry.snapshot()["counters"].get(
                "mem.stream.resumes", 0
            )
            run_cache_streamed(
                FullyAssociativeCache(512, 8), out, checkpoint_path=path
            )
            after = registry.snapshot()["counters"].get(
                "mem.stream.resumes", 0
            )
        finally:
            obs_metrics.set_obs_enabled(False)
        assert after == before + 1


class TestCheckpointCompatibility:
    def test_damaged_checkpoint_restarts_clean(self, streamed, tmp_path):
        trace, out = streamed
        path = tmp_path / "dmg.ckpt"
        run_cache_streamed(
            FullyAssociativeCache(512, 8), out, checkpoint_path=path
        )
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        stats = run_cache_streamed(
            FullyAssociativeCache(512, 8), out, checkpoint_path=path
        )
        assert fullassoc_stats(stats) == fullassoc_stats(
            FullyAssociativeCache(512, 8).run(trace)
        )

    def test_checkpoint_for_other_geometry_rejected(
        self, streamed, tmp_path
    ):
        """A snapshot keyed to different cache parameters must not be
        resumed into — the run restarts from shard zero instead."""
        trace, out = streamed
        path = tmp_path / "geom.ckpt"
        run_cache_streamed(
            FullyAssociativeCache(512, 8), out, checkpoint_path=path
        )
        stats = run_cache_streamed(
            FullyAssociativeCache(1024, 8), out, checkpoint_path=path
        )
        assert fullassoc_stats(stats) == fullassoc_stats(
            FullyAssociativeCache(1024, 8).run(trace)
        )

    def test_checkpoint_key_separates_kinds_and_params(self, streamed):
        _, out = streamed
        keys = {
            checkpoint_key(out, "fullassoc", {"capacity_bytes": 512}),
            checkpoint_key(out, "fullassoc", {"capacity_bytes": 1024}),
            checkpoint_key(out, "setassoc", {"capacity_bytes": 512}),
        }
        assert len(keys) == 3

    def test_default_path_requires_ambient_config(self, streamed, tmp_path):
        _, out = streamed
        clear_streaming()
        try:
            assert default_checkpoint_path(out, "fullassoc", {}) is None
            configure_streaming(tmp_path / "stream")
            path = default_checkpoint_path(out, "fullassoc", {})
            assert path is not None
            assert path.parent == tmp_path / "stream" / "checkpoints"
        finally:
            clear_streaming()

    def test_checkpoint_wal_journals_boundaries(self, streamed, tmp_path):
        _, out = streamed
        path = tmp_path / "wal.ckpt"
        run_cache_streamed(
            FullyAssociativeCache(512, 8), out, checkpoint_path=path
        )
        replay = read_journal(tmp_path / "wal.ckpt.wal")
        records = [
            r for r in replay.records if r.get("type") == "sim-checkpoint"
        ]
        assert [r["shard"] for r in records] == list(range(1, NUM_SHARDS + 1))
        assert not replay.torn_tail and not replay.corrupt


HIERARCHY_LEVELS = (128, 1024)


@pytest.fixture(params=["oracle", "vector"])
def tier(request, monkeypatch):
    """Both tiers, with every chunk (a 300-reference shard included)
    inside the vector tier's domain."""
    monkeypatch.setattr(kernels, "MIN_REFS", 0)
    with kernels.tier_override(request.param):
        yield request.param


class TestHierarchyStreamed:
    """``CacheHierarchy.run`` on a sharded trace goes shard by shard
    through ``run_chunked``, never loading the whole trace."""

    def test_streamed_equals_in_memory(self, streamed, tier, monkeypatch):
        trace, out = streamed
        mem = CacheHierarchy(HIERARCHY_LEVELS)
        mem.run(trace)

        def whole_trace(self):
            raise AssertionError("the streamed hierarchy loaded the whole trace")

        monkeypatch.setattr(type(out), "load", whole_trace)
        srm = CacheHierarchy(HIERARCHY_LEVELS)
        assert srm.run(out) == mem.stats
        assert srm.memory_accesses == mem.memory_accesses

    @pytest.mark.parametrize("fail_at", [1, 3, NUM_SHARDS])
    def test_resume_mid_stream(self, streamed, tmp_path, tier, fail_at):
        trace, out = streamed
        reference = CacheHierarchy(HIERARCHY_LEVELS)
        reference.run(trace)
        path = tmp_path / "h.ckpt"
        with install(IOFaultInjector.parse(f"simckpt:write:enospc:{fail_at}")):
            with pytest.raises(OSError):
                run_hierarchy_streamed(
                    CacheHierarchy(HIERARCHY_LEVELS), out, checkpoint_path=path
                )
        ckpt = load_sim_checkpoint(path)
        assert (ckpt["next_shard"] if ckpt else 0) == fail_at - 1
        resumed = CacheHierarchy(HIERARCHY_LEVELS)
        run_hierarchy_streamed(resumed, out, checkpoint_path=path)
        assert resumed.state_dict() == reference.state_dict()

    def test_expired_budget_stops_the_run(self, streamed, tier):
        from repro.runtime.budget import Budget
        from repro.runtime.errors import BudgetExceeded

        trace, out = streamed
        clock = iter([0.0])
        expired = Budget(1.0, clock=lambda: next(clock, 5.0))
        for source in (trace, out):
            sim = CacheHierarchy(HIERARCHY_LEVELS)
            with pytest.raises(BudgetExceeded):
                sim.run(source, budget=expired)
            assert sim.stats[0].accesses == 0
