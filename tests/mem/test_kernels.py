"""Tests for the vectorized simulation kernels and their trust harness.

The contract under test (see ``docs/KERNELS.md``): the columnar numpy
kernels in :mod:`repro.mem.kernels` must be *byte-identical* to the
pure-Python hot loops at every chunk boundary, and when they are not —
proven here with deterministic fault injection — the KernelGuard must
record a typed divergence, quarantine the kernel, fall back to the
oracle, and leave the campaign result exactly what the oracle alone
would have produced.
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


@pytest.fixture(autouse=True)
def _clean_kernel_world(monkeypatch):
    """Every test starts unconfigured, unquarantined, and fault-free."""
    for name in (
        kernels.TIER_ENV,
        kernels.VERIFY_ENV,
        kernels.MIN_REFS_ENV,
        kernels.BUNDLE_DIR_ENV,
        kernels.FAULT_ENV,
    ):
        monkeypatch.delenv(name, raising=False)
    kernels.clear_kernels(clear_env=False)
    kernels.reset_kernel_state()
    yield
    kernels.clear_kernels(clear_env=False)
    kernels.reset_kernel_state()


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


def _vector(min_refs=0, **kwargs):
    kernels.configure_kernels(
        tier="vector", min_refs=min_refs, export_env=False, **kwargs
    )


# -- configuration and fault grammar ---------------------------------------


class TestConfig:
    def test_defaults_from_empty_environment(self):
        config = kernels.active_kernel_config()
        assert config.tier == kernels.DEFAULT_TIER
        assert config.verify_every == kernels.DEFAULT_VERIFY_EVERY
        assert config.min_refs == kernels.DEFAULT_MIN_REFS

    def test_configure_exports_environment(self, monkeypatch):
        kernels.configure_kernels(tier="oracle", verify_every=7)
        assert kernels.active_kernel_config().tier == "oracle"
        import os

        assert os.environ[kernels.TIER_ENV] == "oracle"
        assert os.environ[kernels.VERIFY_ENV] == "7"
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

    def test_parse_fault_spec(self):
        faults = kernels.parse_fault_spec(
            "fullassoc:wrong-count:1,stackdist:crash:3"
        )
        assert [(f.kernel, f.kind, f.nth) for f in faults] == [
            ("fullassoc", "wrong-count", 1),
            ("stackdist", "crash", 3),
        ]

    @pytest.mark.parametrize(
        "raw",
        ["nope", "fullassoc:wrong-count", "fullassoc:melt:1", "x:nan:1", "fullassoc:nan:0"],
    )
    def test_parse_fault_spec_rejects_garbage(self, raw):
        with pytest.raises(ValueError):
            kernels.parse_fault_spec(raw)


# -- guard engagement ------------------------------------------------------


class TestGuard:
    def test_vector_tier_engages_and_matches_oracle(self):
        trace = _mixed_trace(4000, 64)
        _vector()
        stats = FullyAssociativeCache(32 * 8).run(trace)
        assert kernels.kernel_state("fullassoc")["chunks"] == 1
        assert kernels.kernel_state("fullassoc")["verified"] == 1
        with kernels.tier_override("oracle"):
            expected = FullyAssociativeCache(32 * 8).run(trace)
        assert stats.__dict__ == expected.__dict__

    def test_small_chunks_stay_on_the_oracle(self):
        _vector(min_refs=2048)
        FullyAssociativeCache(32 * 8).run(_mixed_trace(100, 16))
        assert kernels.kernel_state("fullassoc")["chunks"] == 0

    def test_oracle_tier_never_engages(self):
        kernels.configure_kernels(tier="oracle", min_refs=0, export_env=False)
        profile_trace(_mixed_trace(4000, 64))
        assert kernels.kernel_state("stackdist")["chunks"] == 0

    def test_out_of_domain_block_ids_fall_back(self):
        _vector()
        trace = _trace([0, 1, 2, (1 << 45)] * 300)
        stats = FullyAssociativeCache(32 * 8).run(trace)
        assert kernels.kernel_state("fullassoc")["chunks"] == 0
        assert stats.accesses == len(trace)

    def test_sampling_skips_between_verifies(self):
        _vector(verify_every=3)
        trace = _mixed_trace(1000, 32)
        for _ in range(6):
            FullyAssociativeCache(16 * 8).run(trace)
        state = kernels.kernel_state("fullassoc")
        assert state["chunks"] == 6
        assert state["verified"] == 2  # ordinals 1 and 4


# -- deterministic fault injection: the full detection matrix --------------


_EXPECTED_REASON = {
    "wrong-count": "shadow-verify",
    "nan": "sanity",
    "overflow": "sanity",
    "crash": "kernel-crash",
}


def _split(trace, parts=3):
    """Deal a trace out to ``parts`` processors round-robin."""
    return [Trace(trace.addrs[p::parts], trace.kinds[p::parts]) for p in range(parts)]


def _run_sim(kind, trace):
    """Run one guarded simulator end to end; return its final state."""
    if kind == "multiproc":
        sim = MultiprocessorMemory(3)
        sim.run_traces(_split(trace))
    elif kind == "fullassoc":
        sim = FullyAssociativeCache(32 * 8)
        sim.run(trace)
    elif kind == "setassoc":
        sim = SetAssociativeCache(64 * 8, associativity=4)
        sim.run(trace)
    else:
        sim = StackDistanceRun()
        sim.feed(trace)
    return sim.state_dict()


class TestFaultMatrix:
    @pytest.mark.parametrize("kernel", kernels.KERNEL_KINDS)
    @pytest.mark.parametrize("fault", kernels._FAULT_KINDS)
    def test_every_fault_is_caught_and_survived(
        self, kernel, fault, tmp_path, monkeypatch
    ):
        trace = _mixed_trace(3000, 48, seed=11)
        with kernels.tier_override("oracle"):
            expected = _run_sim(kernel, trace)

        monkeypatch.setenv(kernels.FAULT_ENV, f"{kernel}:{fault}:1")
        _vector(bundle_dir=tmp_path / "bundles")
        got = _run_sim(kernel, trace)

        # The campaign result is byte-identical to the pure oracle.
        assert json.dumps(got, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        state = kernels.kernel_state(kernel)
        assert state["divergences"] == 1
        assert state["quarantined"]
        assert kernels.quarantined(kernel)
        events = kernels.drain_kernel_events()
        assert len(events) == 1
        assert events[0]["kernel"] == kernel
        assert events[0]["reason"] == _EXPECTED_REASON[fault]
        assert events[0]["category"] == KernelDivergenceError("x").category
        bundles = list((tmp_path / "bundles").glob("*.json"))
        assert len(bundles) == 1
        payload = json.loads(bundles[0].read_text())
        assert payload["format"] == kernels.BUNDLE_FORMAT
        assert payload["kernel"] == kernel
        if kernel == "multiproc":
            assert payload["blocks"] == [
                t.block_ids(8).tolist() for t in _split(trace)
            ]
        else:
            assert payload["blocks"] == trace.block_ids(8).tolist()

    def test_quarantine_is_sticky_for_the_process(self, monkeypatch):
        monkeypatch.setenv(kernels.FAULT_ENV, "fullassoc:crash:1")
        _vector()
        trace = _mixed_trace(3000, 48)
        FullyAssociativeCache(32 * 8).run(trace)
        assert kernels.quarantined("fullassoc")
        FullyAssociativeCache(32 * 8).run(trace)
        state = kernels.kernel_state("fullassoc")
        assert state["chunks"] == 0  # never ran again
        assert state["divergences"] == 1
        # Other kernels are unaffected.
        profile_trace(trace)
        assert kernels.kernel_state("stackdist")["chunks"] == 1

    def test_bad_fault_spec_disables_injection_with_one_event(
        self, monkeypatch
    ):
        monkeypatch.setenv(kernels.FAULT_ENV, "fullassoc:melt")
        _vector()
        trace = _mixed_trace(3000, 48)
        FullyAssociativeCache(32 * 8).run(trace)
        FullyAssociativeCache(32 * 8).run(trace)
        events = kernels.drain_kernel_events()
        assert [e["reason"] for e in events] == ["bad-fault-spec"]
        assert kernels.kernel_state("fullassoc")["chunks"] == 2


# -- property: byte-identical state at every chunk boundary ----------------


def _twin_check(make_vector_sim, make_oracle_sim, chunks):
    """Feed identical chunks both ways; states must match at every cut."""
    _vector()
    vec = make_vector_sim()
    with kernels.tier_override("oracle"):
        ora = make_oracle_sim()
    for chunk in chunks:
        step = getattr(vec, "run", None) or vec.feed
        step(chunk)
        with kernels.tier_override("oracle"):
            (getattr(ora, "run", None) or ora.feed)(chunk)
        assert json.dumps(vec.state_dict(), sort_keys=True) == json.dumps(
            ora.state_dict(), sort_keys=True
        )
    for kind in kernels.KERNEL_KINDS:
        assert kernels.kernel_state(kind)["divergences"] == 0


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
        _twin_check(
            lambda: FullyAssociativeCache(4 * 8),
            lambda: FullyAssociativeCache(4 * 8),
            chunks,
        )
        kernels.reset_kernel_state()
        for ways in (1, 2, 4):
            _twin_check(
                lambda: SetAssociativeCache(8 * 8, associativity=ways),
                lambda: SetAssociativeCache(8 * 8, associativity=ways),
                chunks,
            )
            kernels.reset_kernel_state()
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
        kernels.reset_kernel_state()
        _twin_check(
            lambda: SetAssociativeCache(32 * 8, associativity=2),
            lambda: SetAssociativeCache(32 * 8, associativity=2),
            chunks,
        )
        kernels.reset_kernel_state()
        _twin_check(StackDistanceRun, StackDistanceRun, chunks)

    def test_warmup_and_reads_only_survive_the_kernel(self):
        trace = _mixed_trace(3000, 40, seed=3)
        _vector()
        vec = StackDistanceRun(warmup=500, count_reads_only=True)
        vec.feed(trace)
        assert kernels.kernel_state("stackdist")["chunks"] == 1
        with kernels.tier_override("oracle"):
            ora = StackDistanceRun(warmup=500, count_reads_only=True)
            ora.feed(trace)
        assert json.dumps(vec.state_dict(), sort_keys=True) == json.dumps(
            ora.state_dict(), sort_keys=True
        )


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


class TestStackDepthEngine:
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
        _twin_check(make_sim, make_sim, chunks)
        assert kernels.kernel_state(kind)["chunks"] == 2

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


def test_assoc_study_vector_tier_equals_oracle():
    from repro.experiments import assoc_study

    vector = assoc_study.run(n=128)
    assert kernels.kernel_state("setassoc")["chunks"] > 0
    assert kernels.kernel_state("setassoc")["divergences"] == 0
    with kernels.tier_override("oracle"):
        oracle = assoc_study.run(n=128)
    assert json.dumps(vector.to_dict(), sort_keys=True) == json.dumps(
        oracle.to_dict(), sort_keys=True
    )


# -- campaign integration: the engine drains fallback events ---------------


class TestEngineIntegration:
    def test_engine_logs_kernel_fallback_events(self, tmp_path, monkeypatch):
        from repro.experiments.runner import ExperimentResult
        from repro.runtime.engine import CampaignEngine, EngineConfig
        from repro.runtime.events import EventLog, read_events

        monkeypatch.setenv(kernels.FAULT_ENV, "fullassoc:wrong-count:1")
        _vector()

        class GuardedExperiment:
            def run(self, **kwargs):
                FullyAssociativeCache(32 * 8).run(_mixed_trace(3000, 48))
                return ExperimentResult("guarded", "guarded experiment")

        log = EventLog(tmp_path / "events.jsonl")
        engine = CampaignEngine(
            {"guarded": (GuardedExperiment(), {})},
            config=EngineConfig(jobs=0, max_attempts=1, sleep=lambda s: None),
            event_log=log,
        )
        report = engine.run()
        assert report.succeeded  # the campaign completed despite the fault
        records = read_events(tmp_path / "events.jsonl")
        fallbacks = [r for r in records if r.get("event") == "kernel-fallback"]
        assert len(fallbacks) == 1
        assert fallbacks[0]["kernel"] == "fullassoc"
        assert fallbacks[0]["category"] == "kernel-divergence"
        assert not kernels.drain_kernel_events()  # engine drained them
