"""Tests for the vectorized simulation kernels.

The contract under test (see ``docs/KERNELS.md``): the columnar numpy
kernels in :mod:`repro.mem.kernels` must be *byte-identical* to the
per-reference loops of ``tests.harness.loops`` (and, for ``multiproc``,
to ``MultiprocessorMemory``'s own loop) at every chunk boundary.  These
tests, together with CI's whole-campaign parity job, are what the
kernels are trusted on; the runtime only checks each chunk's scalar
deltas, and a kernel result that breaks one raises before the
simulator is touched.  A chunk outside a kernel's domain is an input
error.  The fully associative views (``FullyAssociativeCache``,
``CacheHierarchy``) run on the ``stackdist`` kernel, and are held to
the independent oracle of ``tests.harness.lru_oracle``.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
from tests.harness.loops import loops_only
from tests.harness.lru_oracle import OracleCache, OracleHierarchy


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


def _canonical(state):
    return json.dumps(state, sort_keys=True)


# -- configuration ---------------------------------------------------------


class TestConfig:
    def test_defaults_from_empty_environment(self, monkeypatch, kernel_calls):
        monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
        FullyAssociativeCache(32 * 8).run(_mixed_trace(2048, 64))
        assert kernel_calls["stackdist"] == 1

    @pytest.mark.parametrize("value", ["oracle", "orcale"])
    def test_kernel_tier_variable_is_ignored(self, monkeypatch, kernel_calls, value):
        """The retired switch neither forces the loops nor fails a run."""
        monkeypatch.setenv("REPRO_KERNEL_TIER", value)
        FullyAssociativeCache(32 * 8).run(_mixed_trace(4000, 64))
        assert kernel_calls["stackdist"] == 1


class TestLoopsSeam:
    """``tests.harness.loops``: the seam every loop comparison runs on."""

    def test_loops_only_restores(self, kernel_calls):
        guard = kernels.guard_run
        with loops_only():
            assert kernels.guard_run is not guard
            FullyAssociativeCache(32 * 8).run(_mixed_trace(4000, 64))
        assert kernels.guard_run is guard
        assert kernel_calls["stackdist"] == 0
        FullyAssociativeCache(32 * 8).run(_mixed_trace(4000, 64))
        assert kernel_calls["stackdist"] == 1

    def test_loops_only_reaches_every_simulator(self, kernel_calls):
        trace = _mixed_trace(3072, 96, seed=4)
        with loops_only():
            for kind in _VIEWS:
                _run_sim(kind, trace)
        assert sum(kernel_calls.values()) == 0

    def test_loops_only_writes_no_kernel_chunk_counter(self):
        """``status`` reports a kernel from ``mem.kernel.<kind>.chunks``;
        on the loops no kernel runs, so none is written."""
        from repro.obs import metrics as obs_metrics

        trace = _mixed_trace(3072, 96, seed=4)
        obs_metrics.set_obs_enabled(True)
        registry = obs_metrics.get_registry()
        registry.reset()
        try:
            with loops_only():
                for kind in _VIEWS:
                    _run_sim(kind, trace)
            loops = registry.snapshot()["counters"]
            for kind in _VIEWS:
                _run_sim(kind, trace)
            kernel = registry.snapshot()["counters"]
        finally:
            registry.reset()
        assert not [name for name in loops if name.startswith("mem.kernel.")]
        assert {
            name for name in kernel if name.startswith("mem.kernel.")
        } == {f"mem.kernel.{kind}.chunks" for kind in kernels.KERNEL_KINDS}


# -- guard engagement ------------------------------------------------------


class TestGuard:
    def test_vector_tier_engages_and_matches_oracle(self, kernel_calls):
        trace = _mixed_trace(4000, 64)
        stats = FullyAssociativeCache(32 * 8).run(trace)
        assert kernel_calls["stackdist"] == 1
        with loops_only():
            expected = FullyAssociativeCache(32 * 8).run(trace)
        assert stats.__dict__ == expected.__dict__
        assert stats.__dict__ == OracleCache(32 * 8).run(trace).__dict__

    @pytest.mark.parametrize("length", [1, 5, 64, 2047])
    def test_small_chunks_take_the_kernel(self, kernel_calls, length):
        trace = _mixed_trace(length, 16)
        stats = FullyAssociativeCache(32 * 8).run(trace)
        assert kernel_calls["stackdist"] == 1
        assert stats.__dict__ == OracleCache(32 * 8).run(trace).__dict__

    def test_oracle_tier_never_engages(self, kernel_calls):
        with loops_only():
            profile_trace(_mixed_trace(4000, 64))
        assert kernel_calls["stackdist"] == 0

    @pytest.mark.parametrize("block", [-1, 1 << 45], ids=["negative", "too-large"])
    def test_out_of_domain_block_ids_are_rejected(self, kernel_calls, block):
        sim = StackDistanceRun()
        sim.feed(_trace([0, 1, 2] * 10))
        before = _canonical(sim.state_dict())
        with pytest.raises(ValueError, match="block id"):
            kernels.guard_run("stackdist", sim, _trace([0, 1, 2, block] * 300))
        assert _canonical(sim.state_dict()) == before
        assert kernel_calls["stackdist"] == 1

    def test_resident_prefix_counts_toward_max_refs(self, monkeypatch, kernel_calls):
        """The engine runs on the chunk plus its synthetic prefix, so a
        chunk below ``MAX_REFS`` is rejected once the blocks already seen
        push the prefixed length over it."""
        rng = np.random.default_rng(9)
        first = _trace(rng.permutation(3000))  # 3000 distinct blocks
        second = _trace(rng.integers(0, 6000, size=2500))
        monkeypatch.setattr(kernels, "MAX_REFS", 4000)
        assert kernels.guard_run("stackdist", StackDistanceRun(), second) is True
        sim = StackDistanceRun()
        sim.feed(first)
        before = _canonical(sim.state_dict())
        with pytest.raises(ValueError, match="MAX_REFS"):
            kernels.guard_run("stackdist", sim, second)
        assert _canonical(sim.state_dict()) == before
        assert kernel_calls["stackdist"] == 2


def _domain_entry(entry):
    """``(feed, state)`` for a warmed simulator behind one uniprocessor
    entry point, 40 blocks resident: ``StackDistanceRun.feed``,
    ``FullyAssociativeCache.run`` (32 blocks) or
    ``SetAssociativeCache.run_many`` over a sweep whose widest cache
    holds 32 blocks."""
    warm = _trace(list(range(40)) * 3)
    if entry == "stackdist":
        sim = StackDistanceRun()
        sim.feed(warm)
        return sim.feed, lambda: _canonical(sim.state_dict())
    if entry == "fullassoc":
        cache = FullyAssociativeCache(32 * 8)
        cache.run(warm)
        return cache.run, lambda: _canonical(_state(cache))
    caches = _geometry_caches([(8, 1), (8, 4), (16, 2)])
    SetAssociativeCache.run_many(caches, warm)
    return (
        lambda chunk: SetAssociativeCache.run_many(caches, chunk),
        lambda: _states(caches),
    )


@pytest.mark.parametrize("entry", ["stackdist", "fullassoc", "setassoc"])
class TestDomainErrors:
    """A chunk outside the kernels' domain is an input error at every
    uniprocessor entry point: ``ValueError`` naming the limit, no
    kernel call, and the simulator left as it was."""

    def _rejects(self, entry, chunk, match, kernel_calls):
        feed, state = _domain_entry(entry)
        before, calls = state(), sum(kernel_calls.values())
        with pytest.raises(ValueError, match=match):
            feed(chunk)
        assert state() == before
        assert sum(kernel_calls.values()) == calls

    def test_negative_block_id(self, entry, kernel_calls):
        self._rejects(entry, _trace([3, 1, -2, 5]), "must be >= 0", kernel_calls)

    def test_block_id_beyond_the_packed_keys(self, entry, kernel_calls):
        chunk = _trace([3, kernels._MAX_BLOCK_ID, 5])
        self._rejects(entry, chunk, "_MAX_BLOCK_ID", kernel_calls)

    def test_prefixed_chunk_reaching_max_refs(self, entry, kernel_calls, monkeypatch):
        """980 references alone fit under a ``MAX_REFS`` of 1000; with
        the 32 or 40 resident blocks of the prefix they do not."""
        monkeypatch.setattr(kernels, "MAX_REFS", 1000)
        self._rejects(entry, _trace(list(range(980))), "MAX_REFS", kernel_calls)


def _split(trace, parts=3):
    """Deal a trace out to ``parts`` processors round-robin."""
    return [Trace(trace.addrs[p::parts], trace.kinds[p::parts]) for p in range(parts)]


#: Every simulator: one per kernel, plus the fully associative views
#: that run on the ``stackdist`` kernel.
_VIEWS = kernels.KERNEL_KINDS + ("fullassoc", "hierarchy")


def _kernel_of(kind):
    return "stackdist" if kind in ("fullassoc", "hierarchy") else kind


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


def _state(sim):
    """A simulator's whole state: its snapshot, or for a fully
    associative view its counters and its depth engine's snapshot."""
    if isinstance(sim, CacheHierarchy):
        return {
            "levels": [_state(cache) for cache in sim.levels],
            "stats": [vars(level) for level in sim.stats],
            "memory_accesses": sim.memory_accesses,
        }
    if isinstance(sim, FullyAssociativeCache):
        return {"stats": vars(sim.stats), "depths": sim._depths.state_dict()}
    return sim.state_dict()


def _run_sim(kind, trace):
    """Run a fresh simulator over ``trace``; return its final state."""
    sim = _new_sim(kind)
    _feed(kind, sim, trace)
    return _state(sim)


class TestDefaultConfiguration:
    """Nothing patched: what users run."""

    @pytest.mark.parametrize("kind", kernels.KERNEL_KINDS)
    def test_min_refs_chunk_takes_the_vector_tier_and_matches_oracle(self, kind):
        trace = _mixed_trace(3072, 96, seed=4)
        sim = _new_sim(kind)
        assert kernels.guard_run(kind, sim, _chunk_for(kind, trace)) is True
        with loops_only():
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
        else:
            stats = post[0]["stats"]  # setassoc: one snapshot per cache
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
    left exactly as it was, still usable on its loop.  The fully
    associative views take the fault through the ``stackdist`` kernel."""

    @pytest.mark.parametrize("view", _VIEWS)
    @pytest.mark.parametrize("fault", _FAULTS)
    def test_every_fault_is_caught_and_survived(self, view, fault, monkeypatch):
        trace = _mixed_trace(3000, 48, seed=11)
        kernel = _kernel_of(view)
        real = kernels.KERNELS[kernel]

        def faulty(state, blocks, kinds, **extra):
            post = real(state, blocks, kinds, **extra)
            _corrupt(kernel, fault, post, len(trace))
            return post

        monkeypatch.setitem(kernels.KERNELS, kernel, faulty)
        sim = _new_sim(view)
        before = _canonical(_state(sim))
        expected_error = RuntimeError if fault == "crash" else KernelDivergenceError
        with pytest.raises(expected_error):
            _feed(view, sim, trace)
        assert _canonical(_state(sim)) == before
        # The untouched simulator finishes the chunk on its loop.
        with loops_only():
            expected = _run_sim(view, trace)
            _feed(view, sim, trace)
        assert _canonical(_state(sim)) == _canonical(expected)


# -- property: byte-identical state at every chunk boundary ----------------


def _twin_check(make_vector_sim, make_oracle_sim, chunks):
    """Feed identical chunks both ways; states must match at every cut.
    Returns the vector-kernel calls per kind."""
    vec = make_vector_sim()
    with loops_only():
        ora = make_oracle_sim()
    with count_kernel_calls() as calls:
        for chunk in chunks:
            step = getattr(vec, "run", None) or vec.feed
            step(chunk)
            with loops_only():
                (getattr(ora, "run", None) or ora.feed)(chunk)
            assert _canonical(_state(vec)) == _canonical(_state(ora))
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
        _views_match_oracle(chunks, (32, 64))
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
        blocks, kinds = _run_heavy_trace(1500, 96, seed)
        chunks = _chunked(blocks, kinds, [_cut_inside_run(blocks)])
        with count_kernel_calls() as calls:
            _views_match_oracle(chunks, (32,))
        assert calls["stackdist"] == 2 * len(chunks)  # the cache and L1

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
    """Sweep caches with ``run_many`` on the kernel and their twins one
    by one on the loops; stats and states must match at every cut, with
    one kernel call per chunk.  ``histories[i]`` (a block list, when
    present) is fed to cache ``i`` on the loops first."""
    vec, ora = _geometry_caches(geometries), _geometry_caches(geometries)
    with loops_only():
        for history, v, o in zip(histories, vec, ora):
            if history:
                v.run(_trace(history, [b % 2 for b in history]))
                o.run(_trace(history, [b % 2 for b in history]))
    with count_kernel_calls() as calls:
        for chunk in chunks:
            stats = SetAssociativeCache.run_many(vec, chunk)
            with loops_only():
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
        with loops_only():
            for cache in caches:
                cache.run(history)
        states = [cache.state_dict() for cache in caches]
        assert kernels._setassoc_passes(states) == [(8, [1, 3]), (32, [2, 4, 0])]
        # ... one more reference to the direct-mapped cache alone does not.
        with loops_only():
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
        SetAssociativeCache.run_many(vec, chunk)
        with loops_only():
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

        with loops_only():
            expected = [_canonical(c.run(trace).__dict__) for c in caches()]
            swept = SetAssociativeCache.run_many(caches(), trace)
        assert kernel_calls["setassoc"] == 0
        assert [_canonical(s.__dict__) for s in swept] == expected
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


# -- the fully associative views on the depth engine -----------------------


def _views_match_oracle(chunks, levels, resets=()):
    """Feed ``chunks`` to a ``FullyAssociativeCache`` of ``levels[0]``
    blocks, to a ``CacheHierarchy`` of ``levels`` blocks and to their
    oracles; hit masks, counters and memory accesses must agree after
    every chunk.  The cache's counters are reset after chunk ``i`` when
    ``resets[i]`` is true (the contents stay)."""
    cache = FullyAssociativeCache(levels[0] * 8)
    oracle = OracleCache(levels[0] * 8)
    hierarchy = CacheHierarchy([blocks * 8 for blocks in levels])
    oracle_levels = OracleHierarchy([blocks * 8 for blocks in levels])
    for index, chunk in enumerate(chunks):
        assert cache.hit_mask(chunk).tolist() == oracle.hit_mask(chunk).tolist()
        assert vars(cache.stats) == vars(oracle.stats)
        hierarchy.run(chunk)
        oracle_levels.run(chunk)
        assert [vars(level) for level in hierarchy.stats] == [
            vars(level) for level in oracle_levels.stats
        ]
        assert hierarchy.memory_accesses == oracle_levels.memory_accesses
        if index < len(resets) and resets[index]:
            cache.reset_stats()
            oracle.reset_stats()


#: Chunk lengths from one reference to a few thousand.
_CHUNK_LENGTHS = (1, 5, 64, 2047, 2048, 2348)


class TestFullyAssociativeViews:
    @given(
        lengths=st.lists(st.sampled_from(_CHUNK_LENGTHS), min_size=1, max_size=4),
        footprint=st.integers(1, 400),
        write_share=st.sampled_from([0.0, 0.3, 1.0]),
        levels=st.sampled_from([(1, 2), (2, 4), (1, 2, 4), (4, 5), (8, 64), (32, 256)]),
        resets=st.lists(st.booleans(), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_views_match_the_oracle_at_every_boundary(
        self, lengths, footprint, write_share, levels, resets, seed
    ):
        """Default configuration: every chunk takes the kernel, whatever
        its length, and so does a lower level's miss stream.  Writes,
        every cut, and counters reset between chunks."""
        rng = np.random.default_rng(seed)
        chunks = [
            _trace(
                rng.integers(0, footprint, size=n),
                (rng.random(n) < write_share).astype(np.uint8),
            )
            for n in lengths
        ]
        _views_match_oracle(chunks, levels, resets)

    def test_lower_levels_may_see_no_references(self):
        """An L1 that holds the whole footprint sends nothing down."""
        chunks = [_trace([0, 1, 0, 1]), _trace([1, 0] * 5, [1, 0] * 5)]
        with count_kernel_calls() as calls:
            _views_match_oracle(chunks, (2, 8, 16))
        # The cache and L1 take both chunks, L2 and L3 only the first.
        assert calls["stackdist"] == 6


def test_assoc_study_vector_tier_equals_oracle(kernel_calls):
    from repro.experiments import assoc_study

    vector = assoc_study.run(n=128)
    assert kernel_calls["setassoc"] == 1  # one sweep call for every cache
    with loops_only():
        oracle = assoc_study.run(n=128)
    assert _canonical(vector.to_dict()) == _canonical(oracle.to_dict())


def test_hierarchy_design_vector_tier_equals_oracle(kernel_calls):
    from repro.experiments import hierarchy_design

    vector = hierarchy_design.run()
    # Per traced application: one profile call and one call per level.
    assert kernel_calls["stackdist"] == 6
    with loops_only():
        oracle = hierarchy_design.run()
    assert _canonical(vector.to_dict()) == _canonical(oracle.to_dict())


# -- campaign integration: a divergence fails the attempt ------------------


class TestEngineIntegration:
    def test_engine_fails_the_attempt_on_kernel_divergence(self, monkeypatch):
        from repro.experiments.runner import ExperimentResult
        from repro.runtime.engine import CampaignEngine, EngineConfig

        def broken(state, blocks, kinds, **extra):
            post = kernels.kernel_stackdist(state, blocks, kinds, **extra)
            post["cold"] += len(blocks) + 1
            return post

        monkeypatch.setitem(kernels.KERNELS, "stackdist", broken)

        class GuardedExperiment:
            def run(self, **kwargs):
                FullyAssociativeCache(32 * 8).run(_mixed_trace(3000, 48))
                return ExperimentResult("guarded", "guarded experiment")

        engine = CampaignEngine(
            {"guarded": (GuardedExperiment(), {})},
            config=EngineConfig(jobs=0, max_attempts=1, sleep=lambda s: None),
        )
        report = engine.run()
        assert report.failed_ids == ["guarded"]
        (failure,) = report.outcome("guarded").failures
        assert failure.category == KernelDivergenceError.category
        assert "cold misses outside" in failure.message
