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
from repro.mem.hierarchy import CacheHierarchy
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
    if kind == "hierarchy":
        return CacheHierarchy([8 * 8, 32 * 8])
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
        if kind == "multiproc":
            stats = post["stats"][0]
        elif kind == "setassoc":
            stats = post[0]["stats"]  # one snapshot per cache
        elif kind == "hierarchy":
            stats = post["levels"][0]["stats"]
        else:
            stats = post["stats"]
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


# -- the multi-view set-associative sweep ----------------------------------


def _geometry_caches(geometries):
    """One fresh cache per ``(sets, ways)``, 8-byte blocks."""
    return [
        SetAssociativeCache(sets * ways * 8, associativity=ways)
        for sets, ways in geometries
    ]


def _states(sims):
    return [_canonical(sim.state_dict()) for sim in sims]


def _sweep_twin_check(geometries, histories, chunks):
    """Sweep caches with ``run_many`` on the vector tier and their twins
    one by one on the oracle tier; stats and states must match at every
    cut, with one kernel call per chunk.  ``histories[i]`` (a block
    list, when present) is fed to cache ``i`` on the oracle tier first."""
    vec, ora = _geometry_caches(geometries), _geometry_caches(geometries)
    with kernels.tier_override("oracle"):
        for history, v, o in zip(histories, vec, ora):
            if history:
                v.run(_trace(history, [b % 2 for b in history]))
                o.run(_trace(history, [b % 2 for b in history]))
    _vector()
    with count_kernel_calls() as calls:
        for chunk in chunks:
            stats = SetAssociativeCache.run_many(vec, chunk)
            with kernels.tier_override("oracle"):
                for cache in ora:
                    cache.run(chunk)
            assert [s.__dict__ for s in stats] == [c.stats.__dict__ for c in ora]
            assert _states(vec) == _states(ora)
    assert calls["setassoc"] == len(chunks)


geometry_lists = st.lists(
    st.tuples(st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 3, 4])),
    min_size=1,
    max_size=6,
)
history_lists = st.lists(st.lists(st.integers(0, 11), max_size=12), max_size=6)


@pytest.mark.usefixtures("tiny_chunks")
class TestSweep:
    """``SetAssociativeCache.run_many``: one kernel call for many caches,
    one depth pass per set count, exact for any loaded states."""

    @given(
        geometries=geometry_lists,
        blocks=block_lists,
        cuts=cut_lists,
        histories=history_lists,
        shared=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_run_many_matches_oracle_loops_at_every_boundary(
        self, geometries, blocks, cuts, histories, shared, data
    ):
        """Views at one set count and at several; fresh, sharing one
        history (nested: one pass) or each with its own (not nested:
        a pass each)."""
        kinds = data.draw(
            st.lists(st.integers(0, 1), min_size=len(blocks), max_size=len(blocks))
        )
        if shared and histories:
            histories = [histories[0]] * len(geometries)
        _sweep_twin_check(geometries, histories, _chunked(blocks, kinds, cuts))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chunk_boundary_inside_a_run(self, seed):
        blocks, kinds = _run_heavy_trace(1500, 96, seed)
        chunks = _chunked(blocks, kinds, [_cut_inside_run(blocks)])
        geometries = [(sets, ways) for sets in (8, 32) for ways in (1, 2, 4)]
        _sweep_twin_check(geometries, [], chunks)

    def test_unrelated_states_at_one_set_count_stay_exact(self):
        """Each cache's own history, so no state is nested in another."""
        blocks, kinds = _run_heavy_trace(3000, 200, seed=4)
        rng = np.random.default_rng(8)
        geometries = [(16, 4), (16, 2), (16, 1), (16, 4)]
        histories = [rng.integers(0, 200, size=300).tolist() for _ in geometries]
        _sweep_twin_check(geometries, histories, _chunked(blocks, kinds, [1000, 2000]))

    def test_passes_share_a_set_count_only_when_nested(self):
        geometries = [(32, 1), (8, 4), (32, 4), (8, 1), (32, 2)]
        caches = _geometry_caches(geometries)
        states = [cache.state_dict() for cache in caches]
        assert kernels._setassoc_passes(states) == [(8, [1, 3]), (32, [2, 4, 0])]
        # One shared history keeps the views nested ...
        history = _mixed_trace(400, 150, seed=2)
        with kernels.tier_override("oracle"):
            for cache in caches:
                cache.run(history)
        states = [cache.state_dict() for cache in caches]
        assert kernels._setassoc_passes(states) == [(8, [1, 3]), (32, [2, 4, 0])]
        # ... one more reference to the direct-mapped cache alone does not.
        with kernels.tier_override("oracle"):
            caches[0].run(_trace([151]))
        states = [cache.state_dict() for cache in caches]
        assert kernels._setassoc_passes(states) == [
            (8, [1, 3]),
            (32, [2, 4]),
            (32, [0]),
        ]

    @pytest.mark.parametrize(
        "narrow, ever_seen",
        [
            # The narrow set holds fewer blocks than its top `ways` of the
            # wide one: block 2 is resident at depth 2 in the wide view
            # but absent from the narrow one.
            (([0], [1, 0]), [0, 2, 4]),
            # The wide view holds block 4, which neither has ever seen:
            # the narrow view's miss on it is cold, the wide view's hit
            # is not.
            (([0, 2], [2, 0]), [0, 2]),
        ],
        ids=["short-set", "resident-never-seen"],
    )
    def test_loaded_states_that_only_look_nested(self, narrow, ever_seen):
        """Loaded states can break what every reachable state has: each
        set holds the top ``min(count, ways)`` and every resident was
        seen.  Such a view gets a pass of its own."""

        def loaded():
            caches = []
            for ways, (orders, counts) in ((4, ([0, 2, 4], [3, 0])), (2, narrow)):
                cache = SetAssociativeCache(2 * ways * 8, associativity=ways)
                state = cache.state_dict()
                state.update(
                    set_orders_mru_to_lru=orders, set_counts=counts, ever_seen=ever_seen
                )
                cache.load_state_dict(state)
                caches.append(cache)
            return caches

        vec, ora = loaded(), loaded()
        states = [cache.state_dict() for cache in vec]
        assert kernels._setassoc_passes(states) == [(2, [0]), (2, [1])]
        chunk = _trace([2, 0, 1, 2, 4, 3] * 4, [0, 1] * 12)
        _vector()
        SetAssociativeCache.run_many(vec, chunk)
        with kernels.tier_override("oracle"):
            for cache in ora:
                cache.run(chunk)
        assert _states(vec) == _states(ora)

    def test_assoc_sweep_makes_one_pass_per_set_count(self):
        capacities = [1 << k for k in range(8, 19)]
        states = [
            SetAssociativeCache(c, associativity=a).state_dict()
            for a in (1, 4)
            for c in capacities
        ]
        # 4-way 2^8..2^18 B: 8..8192 sets; direct-mapped: 32..32768.
        assert [s for s, _ in kernels._setassoc_passes(states)] == [
            1 << k for k in range(3, 16)
        ]

    def test_oracle_tier_and_mixed_block_sizes_run_cache_by_cache(self, kernel_calls):
        trace = _mixed_trace(3000, 300, seed=6)

        def caches():
            return [
                SetAssociativeCache(c, block_size=b, associativity=2)
                for c, b in ((512, 8), (1024, 16))
            ]

        with kernels.tier_override("oracle"):
            expected = [_canonical(c.run(trace).__dict__) for c in caches()]
            swept = SetAssociativeCache.run_many(caches(), trace)
        assert kernel_calls["setassoc"] == 0
        assert [_canonical(s.__dict__) for s in swept] == expected
        _vector()
        swept = SetAssociativeCache.run_many(caches(), trace)
        assert kernel_calls["setassoc"] == 2  # one single-view call each
        assert [_canonical(s.__dict__) for s in swept] == expected

    def test_sweep_peak_memory_stays_at_one_pass(self):
        """On the Barnes-Hut trace of ``bench_kernel_setassoc4_bh_vector``
        the sweep kernel peaks no higher than the single-view call: views
        sharing its set count add nothing, and each pass's arrays are
        freed before the next.  The allowance covers the per-view
        bookkeeping (lists of snapshots and passes, measured under 1 KiB)
        and is a sixteenth of the smallest trace-length array."""
        import tracemalloc

        from repro.apps.barnes_hut.bodies import plummer_model
        from repro.apps.barnes_hut.trace import BarnesHutTraceGenerator

        trace = BarnesHutTraceGenerator(
            plummer_model(256, seed=3), theta=1.0, num_processors=4
        ).trace_for_processor(0)
        blocks, kinds = trace.block_ids(8), trace.kinds

        def peak(views):
            states = [
                SetAssociativeCache(c, associativity=a).state_dict() for a, c in views
            ]
            kernels.kernel_setassoc(states, blocks, kinds)  # warm imports
            tracemalloc.start()
            try:
                kernels.kernel_setassoc(states, blocks, kinds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        single = peak([(4, 4096)])
        same_sets = [(4, 4096), (2, 2048), (1, 1024)]
        sweep = peak(same_sets + [(4, 8192), (1, 2048), (4, 16384), (1, 4096)])
        assert sweep <= single + len(trace) // 16


# -- the hierarchy kernel --------------------------------------------------


def _hierarchy(levels, history=(), history_kinds=()):
    """A hierarchy of ``levels`` blocks per level, fed ``history`` on
    the oracle tier."""
    sim = CacheHierarchy([blocks * 8 for blocks in levels])
    if len(history):
        with kernels.tier_override("oracle"):
            sim.run(_trace(history, history_kinds))
    return sim


@pytest.mark.usefixtures("tiny_chunks")
class TestHierarchyKernel:
    @given(
        blocks=block_lists,
        cuts=cut_lists,
        levels=st.sampled_from([(1, 2), (2, 4), (1, 2, 4), (2, 8), (4, 5)]),
        history=st.lists(st.integers(0, 9), max_size=16),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_access_loop_at_every_boundary(
        self, blocks, cuts, levels, history, data
    ):
        """Writes, pre-loaded state and every cut: the per-level states,
        counters and memory accesses equal the ``access`` loop's."""

        def draw_kinds(refs):
            return data.draw(
                st.lists(st.integers(0, 1), min_size=len(refs), max_size=len(refs))
            )

        kinds, history_kinds = draw_kinds(blocks), draw_kinds(history)
        chunks = _chunked(blocks, kinds, cuts)
        calls = _twin_check(
            lambda: _hierarchy(levels, history, history_kinds),
            lambda: _hierarchy(levels, history, history_kinds),
            chunks,
        )
        assert calls["hierarchy"] == len(chunks)

    def test_lower_levels_may_see_no_references(self):
        """An L1 that holds the whole footprint sends nothing down."""
        chunks = [_trace([0, 1, 0, 1]), _trace([1, 0] * 5, [1, 0] * 5)]
        calls = _twin_check(
            lambda: _hierarchy((2, 8, 16)), lambda: _hierarchy((2, 8, 16)), chunks
        )
        assert calls["hierarchy"] == 2

    def test_state_round_trip_and_geometry_checks(self):
        sim = _hierarchy((4, 16), list(range(30)), [b % 2 for b in range(30)])
        state = json.loads(json.dumps(sim.state_dict()))
        twin = CacheHierarchy([4 * 8, 16 * 8])
        twin.load_state_dict(state)
        assert _canonical(twin.state_dict()) == _canonical(state)
        assert twin.stats == sim.stats
        with pytest.raises(ValueError):
            CacheHierarchy([4 * 8, 32 * 8]).load_state_dict(state)
        with pytest.raises(ValueError):
            CacheHierarchy([4 * 8]).load_state_dict(state)
        with pytest.raises(ValueError):
            CacheHierarchy([4 * 16, 16 * 16], block_size=16).load_state_dict(state)


def test_assoc_study_vector_tier_equals_oracle(kernel_calls):
    from repro.experiments import assoc_study

    vector = assoc_study.run(n=128)
    assert kernel_calls["setassoc"] == 1  # one sweep call for every cache
    with kernels.tier_override("oracle"):
        oracle = assoc_study.run(n=128)
    assert _canonical(vector.to_dict()) == _canonical(oracle.to_dict())


def test_hierarchy_design_vector_tier_equals_oracle(kernel_calls):
    from repro.experiments import hierarchy_design

    vector = hierarchy_design.run()
    assert kernel_calls["hierarchy"] == 2  # one call per traced application
    with kernels.tier_override("oracle"):
        oracle = hierarchy_design.run()
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
