"""Tests for the vectorized simulation kernels.

The contract under test (see ``docs/KERNELS.md``): the columnar numpy
kernels in :mod:`repro.mem.kernels` must be *byte-identical* to the
pure-Python hot loops at every chunk boundary, in the default
configuration as much as under opt-in settings.  These tests, together
with CI's whole-campaign tier-parity job, are what the vector tier is
trusted on; the runtime only checks each chunk's scalar deltas, and a
kernel result that breaks one raises before the simulator is touched.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import kernels
from repro.mem.cache import FullyAssociativeCache
from repro.mem.multiproc import MultiprocessorMemory
from repro.mem.setassoc import SetAssociativeCache
from repro.mem.stack_distance import StackDistanceRun, profile_trace
from repro.mem.trace import Trace
from repro.runtime.errors import KernelDivergenceError
from tests.conftest import count_kernel_calls


@pytest.fixture(autouse=True)
def _clean_kernel_world(monkeypatch):
    """Every test starts unconfigured, with no tier in the environment."""
    monkeypatch.delenv(kernels.TIER_ENV, raising=False)
    kernels.clear_kernels(clear_env=False)
    yield
    kernels.clear_kernels(clear_env=False)


@pytest.fixture
def tiny_chunks(monkeypatch):
    """Let the vector tier take chunks of any size."""
    monkeypatch.setattr(kernels, "MIN_REFS", 0)


def _trace(blocks, kinds=None):
    addrs = np.asarray(blocks, dtype=np.int64) * 8
    if kinds is None:
        kinds = np.zeros(len(addrs), dtype=np.uint8)
    return Trace(addrs, np.asarray(kinds, dtype=np.uint8))


def _mixed_trace(num_refs, num_blocks, seed=0):
    rng = np.random.default_rng(seed)
    return _trace(
        rng.integers(0, num_blocks, size=num_refs),
        rng.integers(0, 2, size=num_refs),
    )


def _vector():
    kernels.configure_kernels(tier="vector", export_env=False)


def _canonical(state):
    return json.dumps(state, sort_keys=True)


# -- configuration ---------------------------------------------------------


class TestConfig:
    def test_defaults_from_empty_environment(self):
        assert kernels.active_kernel_config() == kernels.KernelConfig(
            tier=kernels.DEFAULT_TIER
        )
        assert kernels.MIN_REFS == 2048

    def test_configure_exports_environment(self):
        import os

        kernels.configure_kernels(tier="oracle")
        assert kernels.active_kernel_config().tier == "oracle"
        assert os.environ[kernels.TIER_ENV] == "oracle"
        kernels.clear_kernels()
        assert kernels.TIER_ENV not in os.environ

    def test_configure_rejects_unknown_tier(self):
        with pytest.raises(ValueError):
            kernels.configure_kernels(tier="gpu")

    def test_tier_override_restores(self):
        _vector()
        with kernels.tier_override("oracle"):
            assert kernels.active_kernel_config().tier == "oracle"
        assert kernels.active_kernel_config().tier == "vector"

    def test_tier_override_rejects_unknown(self):
        with pytest.raises(ValueError):
            with kernels.tier_override("turbo"):
                pass

    def test_mistyped_tier_in_environment_raises(self, monkeypatch):
        monkeypatch.setenv(kernels.TIER_ENV, "orcale")
        with pytest.raises(ValueError, match="orcale"):
            kernels.active_kernel_config()
        # A simulator must not quietly pick a tier either.
        with pytest.raises(ValueError, match="orcale"):
            FullyAssociativeCache(32 * 8).run(_mixed_trace(4000, 64))
        # An explicit tier replaces the environment's.
        config = kernels.configure_kernels(tier="oracle", export_env=False)
        assert config.tier == "oracle"

    def test_cli_exits_2_on_mistyped_tier(self, monkeypatch, tmp_path, capsys):
        from repro.experiments.__main__ import main

        monkeypatch.setenv(kernels.TIER_ENV, "orcale")
        run_dir = tmp_path / "run"
        argv = ["--quick", "--jobs", "0", "--run-dir", str(run_dir), "table1"]
        assert main(argv) == 2
        assert "unknown kernel tier 'orcale'" in capsys.readouterr().out
        assert not run_dir.exists()  # no attempt ran


# -- guard engagement ------------------------------------------------------


class TestGuard:
    def test_vector_tier_engages_and_matches_oracle(self, kernel_calls):
        trace = _mixed_trace(4000, 64)
        _vector()
        stats = FullyAssociativeCache(32 * 8).run(trace)
        assert kernel_calls["fullassoc"] == 1
        with kernels.tier_override("oracle"):
            expected = FullyAssociativeCache(32 * 8).run(trace)
        assert stats.__dict__ == expected.__dict__

    def test_small_chunks_stay_on_the_oracle(self, kernel_calls):
        _vector()
        FullyAssociativeCache(32 * 8).run(_mixed_trace(kernels.MIN_REFS - 1, 16))
        assert kernel_calls["fullassoc"] == 0

    def test_oracle_tier_never_engages(self, tiny_chunks, kernel_calls):
        kernels.configure_kernels(tier="oracle", export_env=False)
        profile_trace(_mixed_trace(4000, 64))
        assert kernel_calls["stackdist"] == 0

    def test_out_of_domain_block_ids_fall_back(self, tiny_chunks, kernel_calls):
        _vector()
        trace = _trace([0, 1, 2, (1 << 45)] * 300)
        stats = FullyAssociativeCache(32 * 8).run(trace)
        assert kernel_calls["fullassoc"] == 0
        assert stats.accesses == len(trace)

    def test_resident_prefix_counts_toward_max_refs(self, monkeypatch, kernel_calls):
        """The engine runs on the chunk plus its synthetic prefix, so a
        chunk below ``MAX_REFS`` is declined once the blocks already seen
        push the prefixed length over it."""
        _vector()
        rng = np.random.default_rng(9)
        first = _trace(rng.permutation(3000))  # 3000 distinct blocks
        second = _trace(rng.integers(0, 6000, size=2500))
        monkeypatch.setattr(kernels, "MAX_REFS", 4000)
        assert kernels.guard_run("stackdist", StackDistanceRun(), second) is True
        sim = StackDistanceRun()
        sim.feed(first)
        before = _canonical(sim.state_dict())
        assert kernels.guard_run("stackdist", sim, second) is False
        assert _canonical(sim.state_dict()) == before
        sim.feed(second)  # declined again: the per-reference loop runs
        assert kernel_calls["stackdist"] == 2
        with kernels.tier_override("oracle"):
            oracle = StackDistanceRun()
            oracle.feed(first)
            oracle.feed(second)
        assert _canonical(sim.state_dict()) == _canonical(oracle.state_dict())


def _split(trace, parts=3):
    """Deal a trace out to ``parts`` processors round-robin."""
    return [Trace(trace.addrs[p::parts], trace.kinds[p::parts]) for p in range(parts)]


def _new_sim(kind):
    if kind == "multiproc":
        return MultiprocessorMemory(3)
    if kind == "fullassoc":
        return FullyAssociativeCache(32 * 8)
    if kind == "setassoc":
        return SetAssociativeCache(64 * 8, associativity=4)
    return StackDistanceRun()


def _chunk_for(kind, trace):
    return _split(trace) if kind == "multiproc" else trace


def _feed(kind, sim, trace):
    """Advance ``sim`` over ``trace`` through its public entry point."""
    if kind == "multiproc":
        sim.run_traces(_split(trace))
    elif kind == "stackdist":
        sim.feed(trace)
    else:
        sim.run(trace)


def _run_sim(kind, trace):
    """Run a fresh simulator over ``trace``; return its final state."""
    sim = _new_sim(kind)
    _feed(kind, sim, trace)
    return sim.state_dict()


class TestDefaultConfiguration:
    """No environment and no ``configure_kernels``: what users run."""

    @pytest.mark.parametrize("kind", kernels.KERNEL_KINDS)
    def test_min_refs_chunk_takes_the_vector_tier_and_matches_oracle(self, kind):
        trace = _mixed_trace(kernels.MIN_REFS * 3 // 2, 96, seed=4)
        sim = _new_sim(kind)
        assert kernels.guard_run(kind, sim, _chunk_for(kind, trace)) is True
        with kernels.tier_override("oracle"):
            expected = _run_sim(kind, trace)
        assert _canonical(sim.state_dict()) == _canonical(expected)


# -- the runtime invariant check -------------------------------------------


_FAULTS = ("wrong-count", "decreasing", "nan", "overflow", "crash")


def _corrupt(kind, fault, post, n):
    """Break one scalar invariant of a kernel result, in place."""
    if fault == "crash":
        raise RuntimeError(f"injected {kind} kernel crash")
    if kind == "stackdist":
        stats, misses, count = post, "cold", "total"
    else:
        stats = post["stats"][0] if kind == "multiproc" else post["stats"]
        misses, count = "read_misses", "reads"
    if fault == "wrong-count":  # more misses than references
        stats[misses] += n + 1
    elif fault == "decreasing":
        stats[misses] = -1
    elif fault == "nan":
        stats[misses] = float("nan")
    else:  # overflow
        stats[count] += 1 << 62


class TestFaultMatrix:
    """A kernel result that breaks a scalar invariant (misses above
    references, a decreasing counter, NaN, a count off the chunk) or a
    kernel that crashes fails the chunk loudly, and the simulator is
    left exactly as it was, still usable on the oracle tier."""

    @pytest.mark.parametrize("kernel", kernels.KERNEL_KINDS)
    @pytest.mark.parametrize("fault", _FAULTS)
    def test_every_fault_is_caught_and_survived(self, kernel, fault, monkeypatch):
        trace = _mixed_trace(3000, 48, seed=11)
        real = kernels.KERNELS[kernel]

        def faulty(state, blocks, kinds, **extra):
            post = real(state, blocks, kinds, **extra)
            _corrupt(kernel, fault, post, len(trace))
            return post

        monkeypatch.setitem(kernels.KERNELS, kernel, faulty)
        sim = _new_sim(kernel)
        before = _canonical(sim.state_dict())
        expected_error = RuntimeError if fault == "crash" else KernelDivergenceError
        with pytest.raises(expected_error):
            kernels.guard_run(kernel, sim, _chunk_for(kernel, trace))
        assert _canonical(sim.state_dict()) == before
        # The untouched simulator finishes the chunk on the oracle tier.
        with kernels.tier_override("oracle"):
            expected = _run_sim(kernel, trace)
            _feed(kernel, sim, trace)
        assert _canonical(sim.state_dict()) == _canonical(expected)


# -- property: byte-identical state at every chunk boundary ----------------


def _twin_check(make_vector_sim, make_oracle_sim, chunks):
    """Feed identical chunks both ways; states must match at every cut.
    Returns the vector-kernel calls per kind."""
    _vector()
    vec = make_vector_sim()
    with kernels.tier_override("oracle"):
        ora = make_oracle_sim()
    with count_kernel_calls() as calls:
        for chunk in chunks:
            step = getattr(vec, "run", None) or vec.feed
            step(chunk)
            with kernels.tier_override("oracle"):
                (getattr(ora, "run", None) or ora.feed)(chunk)
            assert _canonical(vec.state_dict()) == _canonical(ora.state_dict())
    return calls


def _chunked(blocks, kinds, cuts):
    bounds = sorted({c % (len(blocks) + 1) for c in cuts} | {0, len(blocks)})
    return [
        _trace(blocks[a:b], kinds[a:b])
        for a, b in zip(bounds, bounds[1:])
        if b > a
    ]


block_lists = st.lists(st.integers(0, 7), min_size=1, max_size=60)
cut_lists = st.lists(st.integers(0, 60), max_size=4)


@pytest.mark.usefixtures("tiny_chunks")
class TestPropertyEquivalence:
    @given(blocks=block_lists, cuts=cut_lists, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_all_kernels_match_oracle_at_every_boundary(
        self, blocks, cuts, data
    ):
        kinds = data.draw(
            st.lists(
                st.integers(0, 1), min_size=len(blocks), max_size=len(blocks)
            )
        )
        chunks = _chunked(blocks, kinds, cuts)
        _twin_check(
            lambda: FullyAssociativeCache(4 * 8),
            lambda: FullyAssociativeCache(4 * 8),
            chunks,
        )
        for ways in (1, 2, 4):
            _twin_check(
                lambda: SetAssociativeCache(8 * 8, associativity=ways),
                lambda: SetAssociativeCache(8 * 8, associativity=ways),
                chunks,
            )
        _twin_check(StackDistanceRun, StackDistanceRun, chunks)

    @pytest.mark.parametrize(
        "blocks",
        [
            [5] * 200,  # all-same-address
            [0, 1] * 150,  # two-block thrash
            list(range(31)) * 8,  # footprint == capacity - 1
            list(range(32)) * 8,  # footprint == capacity
            list(range(33)) * 8,  # footprint == capacity + 1
            # max-proc interleaving: 16 "processors" with disjoint
            # footprints touched round-robin, the paper's worst case
            # for LRU depth.
            [p * 64 + i for i in range(12) for p in range(16)],
        ],
    )
    def test_adversarial_traces(self, blocks):
        rng = np.random.default_rng(5)
        kinds = rng.integers(0, 2, size=len(blocks)).tolist()
        cuts = [7, len(blocks) // 3, len(blocks) // 2]
        chunks = _chunked(blocks, kinds, cuts)
        _twin_check(
            lambda: FullyAssociativeCache(32 * 8),
            lambda: FullyAssociativeCache(32 * 8),
            chunks,
        )
        _twin_check(
            lambda: SetAssociativeCache(32 * 8, associativity=2),
            lambda: SetAssociativeCache(32 * 8, associativity=2),
            chunks,
        )
        _twin_check(StackDistanceRun, StackDistanceRun, chunks)

    def test_warmup_and_reads_only_survive_the_kernel(self):
        trace = _mixed_trace(3000, 40, seed=3)
        calls = _twin_check(
            lambda: StackDistanceRun(warmup=500, count_reads_only=True),
            lambda: StackDistanceRun(warmup=500, count_reads_only=True),
            [trace],
        )
        assert calls["stackdist"] == 1


# -- the run-compressed depth engine ---------------------------------------


def _naive_depths(ids):
    """``(depth, prev, last_mask)`` straight from the definitions."""
    m = len(ids)
    depth = [0] * m
    prev = [-1] * m
    last_mask = [True] * m
    for i in range(m):
        for j in range(i - 1, -1, -1):
            if ids[j] == ids[i]:
                prev[i] = j
                last_mask[j] = False
                depth[i] = len(set(ids[j + 1 : i + 1]))
                break
    return depth, prev, last_mask


def _check_engine(ids):
    depth, prev, last_mask = kernels._stack_depths(np.asarray(ids, dtype=np.int64))
    want_depth, want_prev, want_last = _naive_depths(list(ids))
    assert prev.tolist() == want_prev
    assert last_mask.tolist() == want_last
    # Depth is defined where a previous occurrence exists.
    assert depth[prev >= 0].tolist() == [
        d for d, p in zip(want_depth, want_prev) if p >= 0
    ]


@st.composite
def run_heavy(draw):
    """1-6 distinct blocks, each run 1-5 references long."""
    distinct = draw(st.integers(1, 6))
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, distinct - 1), st.integers(1, 5)),
            max_size=40,
        )
    )
    return [block for block, length in runs for _ in range(length)]


def _run_heavy_trace(num_runs, num_blocks, seed):
    rng = np.random.default_rng(seed)
    run_blocks = rng.integers(0, num_blocks, size=num_runs)
    blocks = np.repeat(run_blocks, rng.integers(1, 6, size=num_runs))
    kinds = rng.integers(0, 2, size=blocks.shape[0])
    return blocks, kinds


def _cut_inside_run(blocks):
    """First index past the middle where a run continues, so a chunk
    starting there opens on the MRU resident of the state before it."""
    middle = blocks.shape[0] // 2
    inside = np.flatnonzero(blocks[middle:] == blocks[middle - 1 : -1])
    return middle + int(inside[0])


def _brute_inversions(ranks):
    """``D[j] = #{k < j : ranks[k] > ranks[j]}`` from all pairs."""
    ranks = np.asarray(ranks)
    greater = ranks[None, :] > ranks[:, None]  # [j, k]: ranks[k] > ranks[j]
    return np.tril(greater, -1).sum(axis=1)


_INVERSION_SIZES = sorted(
    set(range(71)) | {(1 << k) + d for k in range(1, 13) for d in (-1, 0, 1)}
)


class TestStackDepthEngine:
    @pytest.mark.parametrize("m", _INVERSION_SIZES)
    def test_inversions_match_brute_force(self, m):
        """Every size up to 70 and around each power of two: the last
        aligned block of the partition is full, partial or a single
        element."""
        ranks = np.random.default_rng(m).permutation(m)
        by_rank = kernels._per_element_inversions(ranks)
        assert by_rank.dtype == np.int32
        assert np.array_equal(by_rank[ranks], _brute_inversions(ranks))

    def test_outputs_are_int32(self):
        blocks, _ = _run_heavy_trace(3000, 50, seed=2)
        for engine in (kernels._stack_depths, kernels._run_head_depths):
            depth, prev, last_mask = engine(blocks)
            assert depth.dtype == np.int32 and prev.dtype == np.int32
            assert last_mask.dtype == bool

    def test_peak_memory_per_reference(self):
        """A 1M-reference chunk with no repeats (the whole chunk goes
        through the inversion pass) stays under 96 bytes per reference."""
        import tracemalloc

        rng = np.random.default_rng(6)
        ids = rng.integers(0, 1 << 16, size=1_100_000)
        ids = ids[np.flatnonzero(np.diff(ids, prepend=-1))][:1_000_000]
        assert ids.shape[0] == 1_000_000
        tracemalloc.start()
        try:
            kernels._stack_depths(ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 96 * ids.shape[0]

    @given(ids=run_heavy())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_definition_on_run_heavy_input(self, ids):
        _check_engine(ids)

    @pytest.mark.parametrize(
        "ids",
        [
            [],
            [4],
            [4, 4],
            [4, 9],
            [3] * 50,  # all equal
            [0, 1] * 25,  # alternating: no repeats
            list(range(40)),  # no repeats, all cold
        ],
    )
    def test_edge_inputs(self, ids):
        _check_engine(ids)

    def test_compression_matches_the_uncompressed_pass_at_scale(self):
        blocks, _ = _run_heavy_trace(20_000, 300, seed=1)
        depth, prev, last_mask = kernels._stack_depths(blocks)
        full_depth, full_prev, full_last = kernels._run_head_depths(blocks)
        assert np.array_equal(prev, full_prev)
        assert np.array_equal(last_mask, full_last)
        assert np.array_equal(depth[prev >= 0], full_depth[prev >= 0])


@pytest.mark.usefixtures("tiny_chunks")
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestChunkBoundaryInsideRun:
    """Run-heavy traces cut inside a run: the second chunk's first block
    is the MRU resident of the synthetic prefix."""

    def _check(self, make_sim, kind, seed):
        blocks, kinds = _run_heavy_trace(1500, 96, seed)
        cut = _cut_inside_run(blocks)
        chunks = _chunked(blocks, kinds, [cut])
        assert _twin_check(make_sim, make_sim, chunks)[kind] == 2

    @pytest.mark.parametrize("ways", [1, 2, 4])
    def test_setassoc(self, seed, ways):
        self._check(
            lambda: SetAssociativeCache(32 * 8, associativity=ways), "setassoc", seed
        )

    def test_fullassoc(self, seed):
        self._check(lambda: FullyAssociativeCache(32 * 8), "fullassoc", seed)

    @pytest.mark.parametrize("reads_only", [False, True])
    def test_stackdist_with_warmup_ending_inside_a_run(self, seed, reads_only):
        blocks, _ = _run_heavy_trace(1500, 96, seed)
        warmup = _cut_inside_run(blocks[: blocks.shape[0] // 3])
        self._check(
            lambda: StackDistanceRun(warmup=warmup, count_reads_only=reads_only),
            "stackdist",
            seed,
        )


def test_assoc_study_vector_tier_equals_oracle(kernel_calls):
    from repro.experiments import assoc_study

    vector = assoc_study.run(n=128)
    assert kernel_calls["setassoc"] > 0
    with kernels.tier_override("oracle"):
        oracle = assoc_study.run(n=128)
    assert _canonical(vector.to_dict()) == _canonical(oracle.to_dict())


# -- campaign integration: a divergence fails the attempt ------------------


class TestEngineIntegration:
    def test_engine_fails_the_attempt_on_kernel_divergence(self, tmp_path, monkeypatch):
        from repro.experiments.runner import ExperimentResult
        from repro.runtime.engine import CampaignEngine, EngineConfig
        from repro.runtime.events import EventLog

        def broken(state, blocks, kinds):
            post = kernels.kernel_fullassoc(state, blocks, kinds)
            post["stats"]["read_misses"] += len(blocks) + 1
            return post

        monkeypatch.setitem(kernels.KERNELS, "fullassoc", broken)

        class GuardedExperiment:
            def run(self, **kwargs):
                FullyAssociativeCache(32 * 8).run(_mixed_trace(3000, 48))
                return ExperimentResult("guarded", "guarded experiment")

        engine = CampaignEngine(
            {"guarded": (GuardedExperiment(), {})},
            config=EngineConfig(jobs=0, max_attempts=1, sleep=lambda s: None),
            event_log=EventLog(tmp_path / "events.jsonl"),
        )
        report = engine.run()
        assert report.failed_ids == ["guarded"]
        (failure,) = report.outcome("guarded").failures
        assert failure.category == KernelDivergenceError.category
        assert "misses exceed references" in failure.message
