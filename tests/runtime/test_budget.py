"""Tests for wall-clock budgets and their cooperative enforcement in
the simulation loops."""

import numpy as np
import pytest

from repro.mem.cache import FullyAssociativeCache
from repro.mem.setassoc import SetAssociativeCache
from repro.mem.stack_distance import profile_trace
from repro.mem.trace import Trace
from repro.runtime.budget import (
    Budget,
    activate,
    active_budget,
    check_active_budget,
)
from repro.runtime.errors import BudgetExceeded

from tests.harness.builder import ReferenceBuilder
from tests.harness.loops import iter_interleave_round_robin
from tests.runtime.conftest import FakeClock


def expired_budget() -> Budget:
    """A budget whose deadline has already passed (fake clock)."""
    clock = FakeClock(step=1.0)
    return Budget(0.5, clock=clock)


def big_trace(n: int = 100_000) -> Trace:
    return Trace(
        np.arange(0, n * 8, 8, dtype=np.int64), np.zeros(n, dtype=np.uint8)
    )


class TestBudget:
    def test_unlimited_never_exceeds(self):
        budget = Budget.unlimited()
        assert budget.remaining() is None
        assert not budget.exceeded()
        budget.check()  # no raise

    def test_deadline_raises_with_context(self):
        budget = expired_budget()
        with pytest.raises(BudgetExceeded, match="profiling phase"):
            budget.check("profiling phase")

    def test_nonpositive_seconds_rejected(self):
        with pytest.raises(ValueError):
            Budget(0)
        with pytest.raises(ValueError):
            Budget(-1.0)

    def test_remaining_decreases(self):
        clock = FakeClock(step=0.1)
        budget = Budget(10.0, clock=clock)
        first = budget.remaining()
        second = budget.remaining()
        assert second < first

    def test_restart_resets_deadline(self):
        clock = FakeClock(step=0.3)
        budget = Budget(0.5, clock=clock)
        clock.now = 10.0
        assert budget.exceeded()
        budget.restart()
        assert not budget.exceeded()

    def test_budget_exceeded_is_catchable_taxonomy_member(self):
        from repro.runtime.errors import ExperimentError

        assert issubclass(BudgetExceeded, ExperimentError)


class TestAmbientBudget:
    def test_activation_nests_and_restores(self):
        outer, inner = Budget.unlimited(), Budget.unlimited()
        assert active_budget() is None
        with activate(outer):
            assert active_budget() is outer
            with activate(inner):
                assert active_budget() is inner
            assert active_budget() is outer
        assert active_budget() is None

    def test_check_active_noop_without_budget(self):
        check_active_budget("anything")

    def test_check_active_raises_with_expired_budget(self):
        with activate(expired_budget()):
            with pytest.raises(BudgetExceeded):
                check_active_budget()

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with activate(Budget.unlimited()):
                raise RuntimeError("boom")
        assert active_budget() is None


class TestCooperativeChecks:
    """The mem simulation loops poll the budget and abort."""

    def test_stack_distance_profile_aborts(self):
        with pytest.raises(BudgetExceeded):
            profile_trace(big_trace(), budget=expired_budget())

    def test_stack_distance_uses_ambient_budget(self):
        with activate(expired_budget()):
            with pytest.raises(BudgetExceeded):
                profile_trace(big_trace())

    def test_fully_associative_run_aborts(self):
        cache = FullyAssociativeCache(1024)
        with pytest.raises(BudgetExceeded):
            cache.hit_mask(big_trace(), budget=expired_budget())

    def test_set_associative_run_aborts(self):
        cache = SetAssociativeCache(1024, associativity=2)
        with pytest.raises(BudgetExceeded):
            cache.run(big_trace(), budget=expired_budget())

    def test_interleave_aborts(self):
        builder = ReferenceBuilder()
        builder.read_range(0, 64)
        traces = [builder.build()] * 4
        with pytest.raises(BudgetExceeded):
            list(iter_interleave_round_robin(traces, budget=expired_budget()))

    def test_generous_budget_does_not_interfere(self):
        trace = big_trace(10_000)
        unbudgeted = profile_trace(trace)
        budgeted = profile_trace(trace, budget=Budget(3600.0))
        np.testing.assert_array_equal(
            unbudgeted.depth_histogram, budgeted.depth_histogram
        )
        assert unbudgeted.cold_misses == budgeted.cold_misses
