"""Tests for the MissRateCurve representation."""

import numpy as np
import pytest

from repro.core.curves import MissRateCurve
from repro.mem.stack_distance import profile_trace
from tests.harness.builder import ReferenceBuilder


@pytest.fixture
def loop_profile():
    builder = ReferenceBuilder()
    for _ in range(4):
        builder.read_range(0, 64)
    return profile_trace(builder.build())


class TestConstruction:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            MissRateCurve(np.array([1, 2]), np.array([0.5]))

    def test_monotone_capacities_enforced(self):
        with pytest.raises(ValueError):
            MissRateCurve(np.array([64, 32]), np.array([0.5, 0.4]))

    def test_from_profile(self, loop_profile):
        curve = MissRateCurve.from_profile(loop_profile, [256, 512, 1024])
        assert curve.metric == "miss_rate"
        assert curve.ceiling == 1.0
        assert curve.floor == pytest.approx(0.25)

    def test_from_profile_misses_per_flop_needs_flops(self, loop_profile):
        with pytest.raises(ValueError):
            MissRateCurve.from_profile(
                loop_profile, [256], metric="misses_per_flop"
            )

    def test_from_profile_flop_normalization(self, loop_profile):
        curve = MissRateCurve.from_profile(
            loop_profile, [1024], metric="misses_per_flop", flops=512.0
        )
        assert curve.miss_rates[0] == pytest.approx(64 / 512)

    def test_from_model(self):
        curve = MissRateCurve.from_model(
            lambda c: 1.0 if c < 100 else 0.1, [64, 128]
        )
        assert list(curve.miss_rates) == [1.0, 0.1]

    def test_duplicate_capacities_deduped(self):
        curve = MissRateCurve.from_model(lambda c: 0.5, [64, 64, 128])
        assert len(curve.capacities) == 2


class TestQueries:
    def test_value_at_step_interpolation(self):
        curve = MissRateCurve(np.array([64, 256]), np.array([1.0, 0.1]))
        assert curve.value_at(64) == 1.0
        assert curve.value_at(255) == 1.0
        assert curve.value_at(256) == 0.1
        assert curve.value_at(10**9) == 0.1

    def test_value_below_first_sample(self):
        curve = MissRateCurve(np.array([64, 256]), np.array([1.0, 0.1]))
        assert curve.value_at(8) == 1.0

    def test_drop_factor(self):
        curve = MissRateCurve(np.array([64, 256]), np.array([1.0, 0.1]))
        assert curve.drop_factor() == pytest.approx(10.0)

    def test_drop_factor_infinite(self):
        curve = MissRateCurve(np.array([64, 256]), np.array([1.0, 0.0]))
        assert curve.drop_factor() == float("inf")

    def test_knees_delegates(self):
        curve = MissRateCurve(
            np.array([64, 128, 256, 512]), np.array([1.0, 1.0, 0.1, 0.1])
        )
        knees = curve.knees()
        assert len(knees) == 1
        assert knees[0].capacity_bytes == 256

    def test_render_ascii(self):
        curve = MissRateCurve(
            np.array([64, 128, 256, 512]),
            np.array([1.0, 0.7, 0.2, 0.1]),
            label="demo",
        )
        art = curve.render_ascii(width=20, height=6)
        assert "demo" in art
        assert "*" in art

    def test_render_ascii_short(self):
        curve = MissRateCurve(np.array([64]), np.array([1.0]))
        assert "short" in curve.render_ascii()
