"""Tests for the failing experiment runners of tests/harness/faulty.py."""

import pytest

from repro.runtime.budget import Budget, activate
from repro.runtime.errors import (
    BudgetExceeded,
    ExperimentError,
    TraceGenerationError,
)

from tests.harness.faulty import arm, corrupt_file, fault, fired
from tests.runtime.conftest import FakeClock, FakeExperiment


def attempt(registry, experiment_id, budget=None):
    """Run one attempt of ``experiment_id`` the way the engine does."""
    runner, kwargs = registry[experiment_id]
    with activate(budget or Budget.unlimited()):
        return getattr(runner, "run", runner)(**kwargs)


def armed(tmp_path, experiment_id, **planned):
    registry = {experiment_id: (FakeExperiment(experiment_id), {"n": 1})}
    return arm(registry, {experiment_id: fault(**planned)}, tmp_path)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            fault(kind="meltdown")

    def test_fail_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            fault(kind="crash", attempts=0)


class TestCorruptFile:
    def test_flips_one_byte(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"abcdef")
        corrupt_file(path, offset=2)
        data = path.read_bytes()
        assert data != b"abcdef"
        assert data[0:2] == b"ab" and data[3:] == b"def"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            corrupt_file(path)


class TestFaultInjector:
    def test_crash_raises_configured_exception(self, tmp_path):
        registry = armed(
            tmp_path, "fig2", kind="crash", exception="TraceGenerationError"
        )
        with pytest.raises(TraceGenerationError, match="fig2"):
            attempt(registry, "fig2")
        assert fired(tmp_path) == [("fig2", 1, "crash")]

    def test_fault_stands_down_after_fail_attempts(self, tmp_path):
        registry = armed(tmp_path, "fig2", kind="crash")
        with pytest.raises(ExperimentError):
            attempt(registry, "fig2")
        result = attempt(registry, "fig2")  # clean: the real runner
        assert result.experiment_id == "fig2"
        assert registry["fig2"][1]["fault"]["runner"].calls == [{"n": 1}]
        assert len(fired(tmp_path)) == 1

    def test_unplanned_experiment_untouched(self, tmp_path):
        registry = armed(tmp_path, "fig2", kind="crash")
        registry["fig4"] = (FakeExperiment("fig4"), {})
        attempt(registry, "fig4")
        assert fired(tmp_path) == []

    def test_hang_spins_until_budget_exceeded(self, tmp_path):
        registry = armed(tmp_path, "fig6", kind="hang")
        budget = Budget(0.5, clock=FakeClock(step=0.05))
        with pytest.raises(BudgetExceeded, match="injected hang"):
            attempt(registry, "fig6", budget)

    def test_hang_refuses_unlimited_budget(self, tmp_path):
        registry = armed(tmp_path, "fig6", kind="hang")
        with pytest.raises(ExperimentError, match="finite budget"):
            attempt(registry, "fig6")
