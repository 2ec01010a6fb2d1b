"""Tests for the multi-level cache hierarchy."""

import pytest

from repro.mem.hierarchy import (
    CacheHierarchy,
    assign_working_sets,
    hierarchy_miss_rates_from_profile,
)
from repro.mem.stack_distance import profile_trace
from repro.mem.trace import Trace
from tests.conftest import random_trace
from tests.harness.lru_oracle import OracleHierarchy


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CacheHierarchy([])

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            CacheHierarchy([1024, 1024])
        with pytest.raises(ValueError):
            CacheHierarchy([2048, 1024])


def _levels(capacities, addrs):
    """Run ``addrs`` through a hierarchy and through the oracle cascade;
    returns the hierarchy after checking that every level's counters
    and the memory accesses agree."""
    trace = Trace.from_addresses(addrs)
    hierarchy = CacheHierarchy(capacities)
    oracle = OracleHierarchy(capacities)
    hierarchy.run(trace)
    oracle.run(trace)
    assert [vars(level) for level in hierarchy.stats] == [
        vars(level) for level in oracle.stats
    ]
    assert hierarchy.memory_accesses == oracle.memory_accesses
    return hierarchy


class TestAccess:
    def test_l1_hit(self):
        hierarchy = _levels([64, 256], [0, 0])
        assert hierarchy.stats[0].hits == 1
        assert hierarchy.stats[1].accesses == 1  # only the first reference

    def test_miss_goes_to_memory(self):
        hierarchy = _levels([64, 256], [0])  # both levels miss
        assert [level.misses for level in hierarchy.stats] == [1, 1]
        assert hierarchy.memory_accesses == 1

    def test_l2_hit_after_l1_eviction(self):
        # 2-block L1: 16 evicts 0 from L1, but L2 still holds it.
        hierarchy = _levels([16, 1024], [0, 8, 16, 0])
        assert hierarchy.stats[1].hits == 1
        assert hierarchy.memory_accesses == 3

    def test_level_accesses_chain(self):
        hierarchy = _levels([16, 256], range(0, 400, 8))
        assert hierarchy.stats[1].accesses == hierarchy.stats[0].misses

    def test_global_miss_rate(self, looping_trace):
        hierarchy = CacheHierarchy([64, 64 * 8])
        hierarchy.run(looping_trace)
        assert hierarchy.global_miss_rate == pytest.approx(0.25)  # cold only


class TestProfileEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_local_rates_match_explicit_sim(self, seed):
        """Inclusion: per-level local miss rates from one profile equal
        the oracle's explicit two-level simulation, and so does the
        hierarchy's cascade."""
        trace = random_trace(3000, 100, seed=seed)
        levels = [128, 2048]
        profile = profile_trace(trace)
        predicted = hierarchy_miss_rates_from_profile(profile, levels)
        oracle = OracleHierarchy(levels).run(trace)
        simulated = CacheHierarchy(levels).run(trace)
        for index, level in enumerate(oracle):
            assert level.misses / level.accesses == pytest.approx(predicted[index])
            assert vars(simulated[index]) == vars(level)

    def test_empty_profile(self):
        profile = profile_trace(Trace.from_addresses([]))
        assert hierarchy_miss_rates_from_profile(profile, [64, 128]) == [0.0, 0.0]


class TestAssignment:
    def test_smallest_capturing_level(self):
        assignments = assign_working_sets(
            [("a", 100), ("b", 5000), ("c", 10**9)],
            level_capacities=[1024, 65536],
        )
        assert assignments[0].level == 0
        assert assignments[1].level == 1
        assert assignments[2].level == 2  # memory

    def test_slack_applied(self):
        assignments = assign_working_sets(
            [("a", 600)], level_capacities=[1024, 65536], slack=2.0
        )
        assert assignments[0].level == 1  # 600*2 > 1024

    def test_rejects_bad_slack(self):
        with pytest.raises(ValueError):
            assign_working_sets([("a", 1)], [64], slack=0.5)
