"""Tests for the invariant oracles over results and profiles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.curves import MissRateCurve
from repro.experiments.runner import ExperimentResult, SeriesComparison
from repro.mem.stack_distance import profile_trace
from repro.runtime.errors import ResultRejectedError
from repro.validate.oracles import (
    RESULT_ORACLES,
    assert_valid_result,
    validate_profile,
    validate_result,
)
from tests.harness.builder import ReferenceBuilder


def make_result(**overrides) -> ExperimentResult:
    defaults = dict(
        experiment_id="figX",
        title="A test figure",
        curves=[
            MissRateCurve(
                capacities=np.array([64, 128, 256, 512]),
                miss_rates=np.array([0.5, 0.25, 0.1, 0.1]),
                metric="miss_rate",
                label="good",
            )
        ],
        comparisons=[
            SeriesComparison(
                quantity="knee", paper_value=1.0, measured_value=1.1
            )
        ],
    )
    defaults.update(overrides)
    return ExperimentResult(**defaults)


class TestResultOracles:
    def test_good_result_passes(self):
        report = validate_result(make_result())
        assert report.ok, report.render()
        assert report.checks_run >= len(RESULT_ORACLES)

    def test_nan_rates_flagged(self):
        curve = MissRateCurve(
            capacities=np.array([64, 128]),
            miss_rates=np.array([0.5, np.nan]),
        )
        report = validate_result(make_result(curves=[curve]))
        assert "curve-not-finite" in report.codes()

    def test_negative_rates_flagged(self):
        curve = MissRateCurve(
            capacities=np.array([64, 128]),
            miss_rates=np.array([0.5, -0.1]),
        )
        report = validate_result(make_result(curves=[curve]))
        assert "curve-negative" in report.codes()

    def test_rate_above_one_flagged_for_rate_metrics(self):
        curve = MissRateCurve(
            capacities=np.array([64, 128]),
            miss_rates=np.array([1.5, 0.5]),
            metric="read_miss_rate",
        )
        report = validate_result(make_result(curves=[curve]))
        assert "rate-out-of-range" in report.codes()

    def test_misses_per_flop_may_exceed_one(self):
        curve = MissRateCurve(
            capacities=np.array([64, 128]),
            miss_rates=np.array([3.5, 1.5]),
            metric="misses_per_flop",
        )
        report = validate_result(make_result(curves=[curve]))
        assert "rate-out-of-range" not in report.codes()

    def test_rising_curve_flagged_as_error(self):
        curve = MissRateCurve(
            capacities=np.array([64, 128, 256]),
            miss_rates=np.array([0.5, 0.1, 0.4]),
        )
        report = validate_result(make_result(curves=[curve]))
        assert not report.ok
        assert [f.severity for f in report.by_code("curve-not-monotone")] == [
            "error"
        ]

    def test_marginal_rise_is_a_warning(self):
        curve = MissRateCurve(
            capacities=np.array([64, 128]),
            miss_rates=np.array([0.5, 0.5 + 1e-8]),
        )
        report = validate_result(make_result(curves=[curve]))
        findings = report.by_code("curve-not-monotone")
        assert findings and findings[0].severity == "warning"
        assert report.ok

    def test_mutated_capacities_flagged(self):
        # __post_init__ guards construction; the oracle must also catch
        # in-place mutation after the fact.
        curve = MissRateCurve(
            capacities=np.array([64, 128]),
            miss_rates=np.array([0.5, 0.25]),
        )
        curve.capacities = np.array([128, 64])
        report = validate_result(make_result(curves=[curve]))
        assert "capacity-not-increasing" in report.codes()
        curve.capacities = np.array([0, 64])
        report = validate_result(make_result(curves=[curve]))
        assert "capacity-not-positive" in report.codes()

    def test_non_finite_comparison_flagged(self):
        comp = SeriesComparison(
            quantity="knee", paper_value=1.0, measured_value=float("inf")
        )
        report = validate_result(make_result(comparisons=[comp]))
        assert "comparison-not-finite" in report.codes()

    def test_assert_valid_result_raises_typed(self):
        curve = MissRateCurve(
            capacities=np.array([64, 128]),
            miss_rates=np.array([0.5, np.nan]),
        )
        with pytest.raises(ResultRejectedError, match="curve-not-finite"):
            assert_valid_result(make_result(curves=[curve]))

    def test_assert_valid_result_returns_report_when_ok(self):
        report = assert_valid_result(make_result())
        assert report.ok


class TestProfileOracles:
    def _trace(self):
        tb = ReferenceBuilder()
        for sweep in range(3):
            for block in range(20):
                tb.read(8 * block)
        return tb.build()

    def test_clean_profile_passes(self):
        trace = self._trace()
        profile = profile_trace(trace)
        report = validate_profile(profile, trace=trace)
        assert report.ok, report.render()
        # All the trace-tied identities actually ran.
        assert report.checks_run >= 5

    def test_cold_floor_mismatch_detected(self):
        trace = self._trace()
        profile = profile_trace(trace)
        profile.cold_misses += 1
        report = validate_profile(profile, trace=trace)
        assert "cold-floor-mismatch" in report.codes()
        assert "profile-total-mismatch" in report.codes()

    def test_corrupt_histogram_detected(self):
        trace = self._trace()
        profile = profile_trace(trace)
        profile.depth_histogram[0] = 7
        report = validate_profile(profile, trace=trace)
        assert "profile-depth-zero" in report.codes()

    def test_partial_profile_skips_trace_identities(self):
        trace = self._trace()
        profile = profile_trace(trace, warmup=10)
        report = validate_profile(profile, trace=trace)
        # Warmup profiles count fewer refs; the exact identities are
        # trace-total-gated, so the report must still pass.
        assert report.ok, report.render()
