"""Tests for the Mattson stack-distance profiler — including the
equivalence property against an explicit LRU cache (the test oracle,
``tests.harness.lru_oracle``) that justifies using the single-pass
instrument everywhere."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.stack_distance import (
    StackDistanceProfiler,
    StackDistanceRun,
    default_capacity_grid,
    profile_trace,
)
from repro.mem.trace import READ, WRITE, Trace
from tests.conftest import random_trace
from tests.harness.builder import ReferenceBuilder
from tests.harness.loops import loops_only
from tests.harness.lru_oracle import OracleCache, sweep_cache_sizes


class TestBasics:
    def test_all_cold_for_streaming(self, sequential_trace):
        profile = profile_trace(sequential_trace)
        assert profile.cold_misses == len(sequential_trace)
        assert profile.miss_rate_at(10**9) == 1.0  # cold misses never go away

    def test_loop_depth_distribution(self, looping_trace):
        profile = profile_trace(looping_trace)
        # Each of 3 repeat sweeps re-touches 64 blocks at depth exactly 64.
        assert profile.cold_misses == 64
        assert profile.depth_histogram[64] == 3 * 64

    def test_hit_iff_capacity_at_least_depth(self, looping_trace):
        profile = profile_trace(looping_trace)
        assert profile.misses_at(63) == len(looping_trace)
        assert profile.misses_at(64) == 64  # cold only

    def test_miss_rate_at_bytes_granularity(self, looping_trace):
        profile = profile_trace(looping_trace)
        assert profile.miss_rate_at(64 * 8) == 64 / 256
        assert profile.miss_rate_at(63 * 8) == 1.0

    def test_zero_capacity_misses_everything(self, looping_trace):
        profile = profile_trace(looping_trace)
        assert profile.misses_at(0) == len(looping_trace)

    def test_compulsory_miss_rate(self, looping_trace):
        profile = profile_trace(looping_trace)
        assert profile.compulsory_miss_rate == pytest.approx(0.25)

    def test_max_useful_capacity_is_footprint(self, looping_trace):
        profile = profile_trace(looping_trace)
        assert profile.max_useful_capacity_blocks == 64

    def test_empty_trace(self):
        profile = profile_trace(Trace.from_addresses([]))
        assert profile.total == 0
        assert profile.miss_rate_at(1024) == 0.0

    def test_misses_per_op(self, looping_trace):
        profile = profile_trace(looping_trace)
        per_op = profile.misses_per_op([64 * 8], flops=512.0)
        assert per_op[0] == pytest.approx(64 / 512)

    def test_misses_per_op_requires_positive_flops(self, looping_trace):
        profile = profile_trace(looping_trace)
        with pytest.raises(ValueError):
            profile.misses_per_op([64], flops=0.0)


class TestOptions:
    def test_warmup_excludes_head(self, looping_trace):
        profile = profile_trace(looping_trace, warmup=64)
        # Cold misses all fall in the warmup window.
        assert profile.cold_misses == 0
        assert profile.total == 192

    def test_count_reads_only(self):
        builder = ReferenceBuilder()
        builder.read(0)
        builder.write(8)
        builder.read(0)
        builder.write(8)
        trace = builder.build()
        profile = profile_trace(trace, count_reads_only=True)
        assert profile.total == 2  # the two reads
        # Writes still update LRU state: the second read hits depth 2.
        assert profile.depth_histogram[2] == 1

    def test_block_size_coalesces(self):
        trace = Trace.from_addresses([0, 4, 8, 12])
        coarse = profile_trace(trace, block_size=16)
        assert coarse.cold_misses == 1
        assert coarse.total == 4

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            StackDistanceProfiler(block_size=10)

    def test_negative_warmup(self):
        with pytest.raises(ValueError):
            StackDistanceProfiler(warmup=-1)


class TestEquivalenceWithExplicitCache:
    """The inclusion property: one stack-distance pass equals explicit
    simulation at every capacity."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_traces(self, seed):
        trace = random_trace(2000, 80, seed=seed)
        profile = profile_trace(trace)
        capacities = np.array([8, 64, 128, 256, 320, 640])
        expected = sweep_cache_sizes(trace, capacities)
        actual = profile.miss_rates(capacities)
        np.testing.assert_allclose(actual, expected)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.sampled_from([READ, WRITE]),
            ),
            min_size=1,
            max_size=300,
        ),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_trace_any_capacity(self, refs, capacity_blocks):
        builder = ReferenceBuilder()
        for block, kind in refs:
            if kind == READ:
                builder.read(block * 8)
            else:
                builder.write(block * 8)
        trace = builder.build()
        profile = profile_trace(trace)
        stats = OracleCache(capacity_blocks * 8, block_size=8).run(trace)
        assert profile.misses_at(capacity_blocks) == stats.misses

    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_miss_counts_monotone_in_capacity(self, blocks):
        trace = Trace.from_addresses([b * 8 for b in blocks])
        profile = profile_trace(trace)
        misses = [profile.misses_at(c) for c in range(0, 70)]
        assert all(a >= b for a, b in zip(misses, misses[1:]))
        assert misses[-1] == profile.cold_misses


def _local_trace(num_refs, num_blocks, seed):
    """Random walk over blocks with occasional far jumps: a mix of
    short and long stack depths, with reads and writes."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(-3, 4, size=num_refs)
    jumps = rng.random(num_refs) < 0.05
    steps[jumps] = rng.integers(0, num_blocks, size=int(jumps.sum()))
    blocks = np.cumsum(steps) % num_blocks
    kinds = rng.integers(0, 2, size=num_refs).astype(np.uint8)
    return Trace(blocks.astype(np.int64) * 8, kinds)


def _window(trace, start, stop):
    return Trace(trace.addrs[start:stop], trace.kinds[start:stop])


def _canonical(run):
    return json.dumps(run.state_dict(), sort_keys=True)


def _brute_force(trace, warmup, count_reads_only):
    """Explicit LRU stack (MRU first): histogram, cold, total."""
    stack = []
    hist = {}
    cold = total = 0
    for pos, (block, kind) in enumerate(
        zip(trace.block_ids(8).tolist(), trace.kinds.tolist())
    ):
        counted = pos >= warmup and (not count_reads_only or kind == READ)
        if block in stack:
            depth = stack.index(block) + 1
            stack.remove(block)
            if counted:
                hist[depth] = hist.get(depth, 0) + 1
        elif counted:
            cold += 1
        total += counted
        stack.insert(0, block)
    return hist, cold, total


class TestOracleAgainstBruteForce:
    """The Fenwick-tree loop of ``tests.harness.loops`` against an
    independent list-based Mattson stack, fed in chunks of 1 to 2,500
    references on resident prefixes of every size."""

    @pytest.mark.parametrize(
        "seed, warmup, count_reads_only",
        [(0, 0, False), (1, 1000, True), (2, 5000, False), (3, 4321, True)],
    )
    def test_matches_explicit_stack(
        self, seed, warmup, count_reads_only
    ):
        trace = _local_trace(6000, 400, seed)
        run = StackDistanceRun(count_reads_only=count_reads_only, warmup=warmup)
        with loops_only():
            for start, stop in ((0, 1), (1, 2500), (2500, 4600), (4600, 6000)):
                run.feed(_window(trace, start, stop))
        profile = run.result()
        hist, cold, total = _brute_force(trace, warmup, count_reads_only)
        assert profile.cold_misses == cold
        assert profile.total == total
        assert {
            int(d): int(c) for d, c in enumerate(profile.depth_histogram) if c
        } == hist


class TestLazyTreeTransitions:
    """Chunks alternating between the kernel and the Fenwick-tree loop,
    with snapshots in between: the loop builds its tree from each
    snapshot it is handed, and the run stays byte-identical to an
    all-loop run."""

    CHUNKS = [3000, 2000, 50, 4200, 1, 9000, 7, 6000, 6000, 300]
    TIERS = ["oracle", "oracle", "vector", "oracle", "vector",
             "oracle", "oracle", "vector", "oracle", "oracle"]
    SNAPSHOT_AFTER = {1, 4, 6}

    def _feed_all(self, run, trace, tiers, snapshots=()):
        start = 0
        for index, (size, tier) in enumerate(zip(self.CHUNKS, tiers)):
            with loops_only(tier == "oracle"):
                run.feed(_window(trace, start, start + size))
            if index in snapshots:
                run.state_dict()
            start += size

    def test_mixed_tiers_match_all_oracle(self, kernel_calls):
        trace = _local_trace(sum(self.CHUNKS), 3000, seed=7)
        oracle = StackDistanceRun(count_reads_only=True, warmup=2600)
        self._feed_all(oracle, trace, ["oracle"] * len(self.CHUNKS))

        mixed = StackDistanceRun(count_reads_only=True, warmup=2600)
        self._feed_all(mixed, trace, self.TIERS, self.SNAPSHOT_AFTER)

        assert kernel_calls["stackdist"] == self.TIERS.count("vector")
        assert _canonical(mixed) == _canonical(oracle)
        np.testing.assert_array_equal(
            mixed.result().depth_histogram, oracle.result().depth_histogram
        )


class TestCapacityGrid:
    def test_geometric_and_increasing(self):
        grid = default_capacity_grid(64, 1024, points_per_octave=2)
        assert grid[0] == 64
        assert grid[-1] == 1024
        assert np.all(np.diff(grid) > 0)

    def test_rejects_tiny_min(self):
        with pytest.raises(ValueError):
            default_capacity_grid(min_bytes=4)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            default_capacity_grid(min_bytes=1024, max_bytes=64)
