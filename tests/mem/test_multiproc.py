"""Tests for the shared-address-space multiprocessor memory model —
especially the miss classification (cold vs coherence) the paper's
methodology depends on.  Every case runs on the coherence kernel, the
one engine of ``MultiprocessorMemory``; the differentials hold it to
the per-reference loop of ``tests.harness.loops``."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import kernels
from repro.mem.multiproc import MultiprocessorMemory
from repro.mem.trace import READ, Trace, WRITE
from tests.conftest import count_kernel_calls
from tests.harness.builder import ReferenceBuilder, access
from tests.harness.loops import loops_only


class TestConstruction:
    def test_rejects_zero_processors(self):
        with pytest.raises(ValueError):
            MultiprocessorMemory(0)

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            MultiprocessorMemory(2, block_size=12)


class TestPrivateCaching:
    def test_independent_caches(self):
        mem = MultiprocessorMemory(2)
        access(mem, 0, 0)
        # Processor 1 still cold-misses the block processor 0 loaded.
        assert access(mem, 1, 0) is False
        assert mem.stats[1].cold_misses == 1

    def test_hit_after_load(self):
        mem = MultiprocessorMemory(2)
        access(mem, 0, 0)
        assert access(mem, 0, 0) is True


class TestCoherence:
    def test_write_invalidates_other_copies(self):
        mem = MultiprocessorMemory(2)
        access(mem, 0, 0, READ)
        access(mem, 1, 0, READ)
        access(mem, 1, 0, WRITE)
        # Processor 0's copy is gone; its re-read is a coherence miss.
        assert access(mem, 0, 0, READ) is False
        assert mem.stats[0].coherence_misses == 1
        assert mem.stats[0].invalidations_received == 1

    def test_writer_keeps_its_copy(self):
        mem = MultiprocessorMemory(2)
        access(mem, 0, 0, WRITE)
        assert access(mem, 0, 0, READ) is True

    def test_no_self_invalidation(self):
        mem = MultiprocessorMemory(2)
        access(mem, 0, 0, READ)
        access(mem, 0, 0, WRITE)
        assert mem.stats[0].invalidations_received == 0

    def test_coherence_miss_with_infinite_cache(self):
        """Communication misses persist even with infinite caches — the
        paper's definition of inherent communication."""
        mem = MultiprocessorMemory(2)
        for _ in range(4):
            access(mem, 0, 0, WRITE)
            access(mem, 1, 0, READ)
        assert mem.stats[1].coherence_misses == 3
        assert mem.stats[1].communication_miss_rate > 0

    def test_ping_pong_classification(self):
        mem = MultiprocessorMemory(2)
        access(mem, 0, 0, WRITE)
        access(mem, 1, 0, WRITE)
        access(mem, 0, 0, WRITE)
        access(mem, 1, 0, WRITE)
        assert mem.stats[0].coherence_misses == 1
        assert mem.stats[1].coherence_misses == 1

    def test_read_sharing_no_invalidation(self):
        mem = MultiprocessorMemory(4)
        for pid in range(4):
            access(mem, pid, 0, READ)
        for pid in range(4):
            assert access(mem, pid, 0, READ) is True
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
        access(mem, 0, 0)
        access(mem, 1, 8)
        total = mem.aggregate()
        assert total.reads == 2
        assert total.misses == 2

    def test_reset_stats_preserves_state(self):
        mem = MultiprocessorMemory(1)
        access(mem, 0, 0)
        mem.reset_stats()
        assert mem.stats[0].accesses == 0
        assert access(mem, 0, 0) is True

    def test_interleaved_input(self):
        """Round robin runs P0's write, P1's read, then P0's read."""
        mem = MultiprocessorMemory(2)
        mem.run_traces([_trace([(0, WRITE), (0, READ)]), _trace([(0, READ)])])
        assert mem.stats[0].misses == 1  # write cold; read hits
        assert mem.stats[1].misses == 1


# -- snapshots and the coherence kernel ------------------------------------


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
            access(mem, pid, addr, kind)
        state = mem.state_dict()
        twin = MultiprocessorMemory(3)
        twin.load_state_dict(json.loads(json.dumps(state)))
        assert _state(twin) == _state(mem)
        # The restored machine behaves identically from here on.
        assert access(twin, 2, 8, READ) == access(mem, 2, 8, READ)
        assert _state(twin) == _state(mem)

    def test_geometry_mismatch_rejected(self):
        state = MultiprocessorMemory(2).state_dict()
        with pytest.raises(ValueError):
            MultiprocessorMemory(3).load_state_dict(state)
        with pytest.raises(ValueError):
            MultiprocessorMemory(2, block_size=64).load_state_dict(state)


#: Machine widths around the one-word processor masks (64 processors).
_WIDTHS = (1, 2, 62, 63, 64, 130)


def _random_calls(seed, procs, calls, max_len, max_block, spread):
    """``calls`` lists of per-processor traces from ``seed``."""
    rng = np.random.default_rng(seed)
    return [
        [
            _trace(
                list(
                    zip(
                        rng.integers(0, max_block + 1, size=length).tolist(),
                        rng.integers(READ, WRITE + 1, size=length).tolist(),
                    )
                ),
                spread,
            )
            for length in rng.integers(0, max_len + 1, size=procs)
        ]
        for _ in range(calls)
    ]


class TestCoherenceKernel:
    @given(
        procs=st.sampled_from(_WIDTHS),
        seed=st.integers(0, 2**32 - 1),
        calls=st.integers(1, 3),
        max_len=st.integers(0, 12),
        max_block=st.integers(0, 12),
        window=st.integers(1, 24),
        # Dense and sparse block ids both take the kernel.
        spread=st.sampled_from([1, 1 << 20]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_across_windows_and_resets(
        self, procs, seed, calls, max_len, max_block, window, spread
    ):
        vec = MultiprocessorMemory(procs)
        ora = MultiprocessorMemory(procs)
        with mock.patch.object(
            kernels, "MULTIPROC_WINDOW_REFS", window
        ), count_kernel_calls() as runs:
            for traces in _random_calls(seed, procs, calls, max_len, max_block, spread):
                refs = sum(len(t) for t in traces)
                before = runs["multiproc"]
                vec.reset_stats()
                vec.run_traces(traces)
                assert runs["multiproc"] - before == int(refs > 0)
                with loops_only():
                    ora.reset_stats()
                    ora.run_traces(traces)
                assert [s.__dict__ for s in vec.stats] == [
                    s.__dict__ for s in ora.stats
                ]
                assert _state(vec) == _state(ora)

    def test_kernel_engages_once_per_call(self, kernel_calls):
        mem = MultiprocessorMemory(2)
        mem.run_traces([_trace([(0, WRITE)] * 5), _trace([(0, READ)] * 3)])
        mem.run_traces([_trace([(1, READ)]), _trace([])])
        assert kernel_calls["multiproc"] == 2

    def test_wide_machine_takes_the_kernel(self, kernel_calls):
        """63 processors: past one signed 64-bit mask word."""
        traces = [_trace([(p, WRITE), (0, READ), (p + 1, READ)]) for p in range(63)]
        mem = MultiprocessorMemory(63)
        mem.run_traces(traces)
        assert kernel_calls["multiproc"] == 1
        with loops_only():
            ora = MultiprocessorMemory(63)
            ora.run_traces(traces)
        assert kernel_calls["multiproc"] == 1
        assert _state(mem) == _state(ora)
        assert mem.aggregate().accesses == 3 * 63

    def test_sparse_block_ids_take_the_kernel(self, kernel_calls):
        """Blocks far apart, in the traces and in the machine's state."""
        mem = MultiprocessorMemory(2)
        ora = MultiprocessorMemory(2)
        for blocks in ([0, 1], [1 << 40, 1], [3, 1 << 20]):
            traces = [_trace([(b, WRITE), (b, READ)]) for b in blocks]
            mem.run_traces(traces)
            with loops_only():
                ora.run_traces(traces)
        assert kernel_calls["multiproc"] == 3
        assert _state(mem) == _state(ora)

    @pytest.mark.parametrize(
        "block", [-1, kernels._MAX_BLOCK_ID], ids=["negative", "too-large"]
    )
    def test_block_id_outside_the_packed_keys_is_rejected(self, kernel_calls, block):
        mem = MultiprocessorMemory(2)
        mem.run_traces([_trace([(0, WRITE)]), _trace([(1, READ)])])
        before = _state(mem)
        with pytest.raises(ValueError, match="block id"):
            mem.run_traces([_trace([(2, READ)]), _trace([(block, WRITE)])])
        assert _state(mem) == before
        assert kernel_calls["multiproc"] == 1


class TestBarnesHutPhases:
    """The three bh-phases phases, kernel against oracle, at the seeds
    the end-to-end benchmark draws from."""

    @pytest.mark.parametrize("seed", [5, 15, 35, 37])
    def test_phase_states_match_oracle(self, seed, kernel_calls):
        from repro.apps.barnes_hut.trace import BarnesHutTraceGenerator

        gen = BarnesHutTraceGenerator.from_plummer(256, seed=seed, num_processors=4)
        phases = [
            [gen.build_trace_for_processor(p) for p in range(4)],
            [gen.moments_trace_for_processor(p) for p in range(4)],
            [gen.trace_for_processor(p) for p in range(4)],
        ]
        vec = MultiprocessorMemory(4)
        ora = MultiprocessorMemory(4)
        for traces in phases:
            vec.reset_stats()
            vec.run_traces(traces)
            with loops_only():
                ora.reset_stats()
                ora.run_traces(traces)
            assert _state(vec) == _state(ora)
        assert kernel_calls["multiproc"] == 3


def test_budget_expiring_inside_the_kernel_propagates(kernel_calls):
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
