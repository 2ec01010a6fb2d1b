"""Tests for the shared-address-space multiprocessor memory model —
especially the miss classification (cold vs capacity vs coherence) the
paper's methodology depends on."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import kernels
from repro.mem.multiproc import MultiprocessorMemory
from repro.mem.trace import Access, READ, Trace, WRITE
from tests.conftest import count_kernel_calls
from tests.harness.builder import ReferenceBuilder
from tests.harness.loops import loops_only


class TestConstruction:
    def test_rejects_zero_processors(self):
        with pytest.raises(ValueError):
            MultiprocessorMemory(0)

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            MultiprocessorMemory(2, capacity_bytes=4)

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            MultiprocessorMemory(2, block_size=12)


class TestPrivateCaching:
    def test_independent_caches(self):
        mem = MultiprocessorMemory(2, capacity_bytes=None)
        mem.access(0, 0)
        # Processor 1 still cold-misses the block processor 0 loaded.
        assert mem.access(1, 0) is False
        assert mem.stats[1].cold_misses == 1

    def test_hit_after_load(self):
        mem = MultiprocessorMemory(2)
        mem.access(0, 0)
        assert mem.access(0, 0) is True

    def test_capacity_eviction(self):
        mem = MultiprocessorMemory(1, capacity_bytes=16)  # two blocks
        mem.access(0, 0)
        mem.access(0, 8)
        mem.access(0, 16)
        mem.access(0, 0)  # evicted earlier -> capacity miss
        assert mem.stats[0].capacity_misses == 1


class TestCoherence:
    def test_write_invalidates_other_copies(self):
        mem = MultiprocessorMemory(2)
        mem.access(0, 0, READ)
        mem.access(1, 0, READ)
        mem.access(1, 0, WRITE)
        # Processor 0's copy is gone; its re-read is a coherence miss.
        assert mem.access(0, 0, READ) is False
        assert mem.stats[0].coherence_misses == 1
        assert mem.stats[0].invalidations_received == 1

    def test_writer_keeps_its_copy(self):
        mem = MultiprocessorMemory(2)
        mem.access(0, 0, WRITE)
        assert mem.access(0, 0, READ) is True

    def test_no_self_invalidation(self):
        mem = MultiprocessorMemory(2)
        mem.access(0, 0, READ)
        mem.access(0, 0, WRITE)
        assert mem.stats[0].invalidations_received == 0

    def test_coherence_miss_with_infinite_cache(self):
        """Communication misses persist even with infinite caches — the
        paper's definition of inherent communication."""
        mem = MultiprocessorMemory(2, capacity_bytes=None)
        for _ in range(4):
            mem.access(0, 0, WRITE)
            mem.access(1, 0, READ)
        assert mem.stats[1].coherence_misses == 3
        assert mem.stats[1].communication_miss_rate > 0

    def test_ping_pong_classification(self):
        mem = MultiprocessorMemory(2)
        mem.access(0, 0, WRITE)
        mem.access(1, 0, WRITE)
        mem.access(0, 0, WRITE)
        mem.access(1, 0, WRITE)
        assert mem.stats[0].coherence_misses == 1
        assert mem.stats[1].coherence_misses == 1

    def test_read_sharing_no_invalidation(self):
        mem = MultiprocessorMemory(4)
        for pid in range(4):
            mem.access(pid, 0, READ)
        for pid in range(4):
            assert mem.access(pid, 0, READ) is True
        assert all(s.coherence_misses == 0 for s in mem.stats)


class TestRun:
    def test_run_traces_round_robin(self):
        a = ReferenceBuilder()
        a.write(0)
        b = ReferenceBuilder()
        b.read(0)
        mem = MultiprocessorMemory(2)
        stats = mem.run_traces([a.build(), b.build()])
        # P0's write happens first (round robin), so P1's read cold-misses
        # but then holds a valid copy.
        assert stats[1].cold_misses == 1

    def test_run_traces_count_mismatch(self):
        mem = MultiprocessorMemory(2)
        with pytest.raises(ValueError):
            mem.run_traces([Trace.from_addresses([0])])

    def test_aggregate_sums(self):
        mem = MultiprocessorMemory(2)
        mem.access(0, 0)
        mem.access(1, 8)
        total = mem.aggregate()
        assert total.reads == 2
        assert total.misses == 2

    def test_reset_stats_preserves_state(self):
        mem = MultiprocessorMemory(1)
        mem.access(0, 0)
        mem.reset_stats()
        assert mem.stats[0].accesses == 0
        assert mem.access(0, 0) is True

    def test_interleaved_input(self):
        mem = MultiprocessorMemory(2)
        mem.run([(0, Access(0, WRITE)), (1, Access(0, READ)), (0, Access(0, READ))])
        assert mem.stats[0].misses == 1  # write cold; read hits
        assert mem.stats[1].misses == 1


class TestEvictionDirectoryConsistency:
    def test_evicted_block_not_invalidated_later(self):
        mem = MultiprocessorMemory(2, capacity_bytes=8)  # one block each
        mem.access(0, 0, READ)
        mem.access(0, 8, READ)  # evicts block 0 from P0
        mem.access(1, 0, WRITE)  # must not count an invalidation at P0
        assert mem.stats[0].invalidations_received == 0
        # P0's re-read of block 0 is a capacity miss, not coherence.
        mem.access(0, 0, READ)
        assert mem.stats[0].coherence_misses == 0
        assert mem.stats[0].capacity_misses >= 1


# -- snapshots and the columnar coherence kernel ---------------------------


@pytest.fixture
def vector_tier(monkeypatch, kernel_calls):
    """The kernels on every chunk size; yields the kernel calls."""
    monkeypatch.setattr(kernels, "MIN_REFS", 0)
    return kernel_calls


def _state(mem):
    return json.dumps(mem.state_dict(), sort_keys=True)


def _trace(pairs, spread=1):
    return Trace(
        np.asarray([b * spread * 8 for b, _ in pairs], dtype=np.int64),
        np.asarray([k for _, k in pairs], dtype=np.uint8),
    )


class TestStateDict:
    def test_round_trip(self):
        mem = MultiprocessorMemory(3)
        for pid, addr, kind in [(0, 0, WRITE), (1, 0, READ), (2, 8, READ), (1, 8, WRITE)]:
            mem.access(pid, addr, kind)
        state = mem.state_dict()
        twin = MultiprocessorMemory(3)
        twin.load_state_dict(json.loads(json.dumps(state)))
        assert _state(twin) == _state(mem)
        # The restored machine behaves identically from here on.
        assert twin.access(2, 8, READ) == mem.access(2, 8, READ)
        assert _state(twin) == _state(mem)

    def test_geometry_mismatch_rejected(self):
        state = MultiprocessorMemory(2).state_dict()
        with pytest.raises(ValueError):
            MultiprocessorMemory(3).load_state_dict(state)
        with pytest.raises(ValueError):
            MultiprocessorMemory(2, capacity_bytes=64).load_state_dict(state)


def _traces_strategy(max_procs=6, max_len=40, max_block=12):
    ref = st.tuples(st.integers(0, max_block), st.integers(READ, WRITE))
    return st.integers(1, max_procs).flatmap(
        lambda p: st.lists(
            st.lists(st.lists(ref, max_size=max_len), min_size=p, max_size=p),
            min_size=1,
            max_size=3,
        )
    )


class TestCoherenceKernel:
    @given(
        calls=_traces_strategy(),
        window=st.integers(1, 24),
        # Dense block ids run the kernel; sparse ones fall back to the loop.
        spread=st.sampled_from([1, 1 << 20]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_across_windows_and_resets(self, calls, window, spread):
        procs = len(calls[0])
        vec = MultiprocessorMemory(procs)
        with loops_only():
            ora = MultiprocessorMemory(procs)
        touched = set()
        with mock.patch.object(
            kernels, "MULTIPROC_WINDOW_REFS", window
        ), mock.patch.object(kernels, "MIN_REFS", 0), count_kernel_calls() as runs:
            for call in calls:
                traces = [_trace(refs, spread) for refs in call]
                touched.update(b for refs in call for b, _ in refs)
                refs = sum(len(t) for t in traces)
                dense = spread == 1 or len(touched) <= 1
                before = runs["multiproc"]
                vec.reset_stats()
                vec.run_traces(traces)
                engaged = runs["multiproc"] - before
                assert engaged == int(refs > 0 and dense)
                with loops_only():
                    ora.reset_stats()
                    ora.run_traces(traces)
                assert [s.__dict__ for s in vec.stats] == [
                    s.__dict__ for s in ora.stats
                ]
                assert _state(vec) == _state(ora)

    def test_kernel_engages_once_per_call(self, vector_tier):
        mem = MultiprocessorMemory(2)
        mem.run_traces([_trace([(0, WRITE)] * 5), _trace([(0, READ)] * 3)])
        mem.run_traces([_trace([(1, READ)]), _trace([])])
        assert vector_tier["multiproc"] == 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (MultiprocessorMemory(2, capacity_bytes=64), 2),
            lambda: (MultiprocessorMemory(63), 63),
        ],
        ids=["finite-caches", "too-many-processors"],
    )
    def test_out_of_domain_machines_use_the_loop(self, vector_tier, make):
        mem, procs = make()
        traces = [_trace([(p, WRITE), (0, READ)]) for p in range(procs)]
        mem.run_traces(traces)
        assert vector_tier["multiproc"] == 0
        assert mem.aggregate().accesses == 2 * procs

    def test_sparse_block_ids_use_the_loop(self, vector_tier):
        """The span counts blocks already held in the machine's state."""
        mem = MultiprocessorMemory(2)
        with loops_only():
            ora = MultiprocessorMemory(2)
        for blocks in ([0, 1], [1 << 20, 1]):
            traces = [_trace([(b, WRITE)]) for b in blocks]
            mem.run_traces(traces)
            with loops_only():
                ora.run_traces(traces)
        assert vector_tier["multiproc"] == 1
        assert _state(mem) == _state(ora)


class TestBarnesHutPhases:
    """The three bh-phases phases, kernel against oracle, at the seeds
    the end-to-end benchmark draws from."""

    @pytest.mark.parametrize("seed", [5, 15, 35, 37])
    def test_phase_states_match_oracle(self, seed, vector_tier):
        from repro.apps.barnes_hut.trace import BarnesHutTraceGenerator

        gen = BarnesHutTraceGenerator.from_plummer(256, seed=seed, num_processors=4)
        phases = [
            [gen.build_trace_for_processor(p) for p in range(4)],
            [gen.moments_trace_for_processor(p) for p in range(4)],
            [gen.trace_for_processor(p) for p in range(4)],
        ]
        vec = MultiprocessorMemory(4)
        with loops_only():
            ora = MultiprocessorMemory(4)
        for traces in phases:
            vec.reset_stats()
            vec.run_traces(traces)
            with loops_only():
                ora.reset_stats()
                ora.run_traces(traces)
            assert _state(vec) == _state(ora)
        assert vector_tier["multiproc"] == 3


def test_budget_expiring_inside_the_kernel_propagates(vector_tier):
    """The kernel polls the budget once per window; a deadline there is
    the campaign's, not a kernel divergence."""
    import itertools

    from repro.runtime import budget as budget_mod
    from repro.runtime.errors import BudgetExceeded

    clock = itertools.chain([0.0, 0.0, 0.0], itertools.repeat(5.0))
    deadline = budget_mod.Budget(1.0, clock=lambda: next(clock))
    traces = [_trace([(b, READ) for b in range(20)]) for _ in range(2)]
    mem = MultiprocessorMemory(2)
    with mock.patch.object(kernels, "MULTIPROC_WINDOW_REFS", 4):
        with budget_mod.activate(deadline):
            with pytest.raises(BudgetExceeded):
                mem.run_traces(traces)
    assert mem.aggregate().accesses == 0  # the machine is untouched
