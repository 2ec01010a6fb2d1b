"""The columnar Barnes-Hut trace generator against the per-reference
oracle in :mod:`tests.apps.bh_trace_oracle`: byte-identical force,
build and moments traces for every processor, and the oracle's scalar
decision walk against the physics walk it stands in for."""

import numpy as np
import pytest

from repro.apps.barnes_hut.force import WalkStats, accelerate_body
from repro.apps.barnes_hut.trace import BarnesHutTraceGenerator
from tests.apps import bh_trace_oracle
from tests.apps.trace_parity import assert_same_trace

PHASES = [
    ("trace_for_processor", bh_trace_oracle.force_trace),
    ("build_trace_for_processor", bh_trace_oracle.build_trace),
    ("moments_trace_for_processor", bh_trace_oracle.moments_trace),
]


@pytest.fixture(scope="module", params=[64, 256])
def generator(request):
    return BarnesHutTraceGenerator.from_plummer(
        request.param, seed=9, num_processors=4
    )


def _assert_force_phase_matches(gen):
    """Every pid's force trace equals the oracle's, and the generator's
    walk counts equal the oracle walk's over that partition."""
    for pid in range(gen.num_processors):
        assert_same_trace(
            gen.trace_for_processor(pid), bh_trace_oracle.force_trace(gen, pid)
        )
        assert gen.stats == bh_trace_oracle.walk_stats(
            gen.tree, gen.partitions[pid], gen.theta
        )


@pytest.mark.parametrize("method, oracle", PHASES, ids=[m for m, _ in PHASES])
def test_matches_oracle_for_every_pid(generator, method, oracle):
    for pid in range(generator.num_processors):
        assert_same_trace(getattr(generator, method)(pid), oracle(generator, pid))


def test_monopole_force_trace_matches_oracle():
    gen = BarnesHutTraceGenerator.from_plummer(
        64, seed=3, num_processors=2, quadrupole=False
    )
    _assert_force_phase_matches(gen)


@pytest.mark.parametrize("theta", [0.0, 0.5, 0.7, 1.0, 1.5])
def test_force_trace_matches_oracle_across_theta(theta):
    gen = BarnesHutTraceGenerator.from_plummer(64, seed=5, theta=theta)
    _assert_force_phase_matches(gen)


@pytest.mark.parametrize("num_processors", [1, 3, 16])
def test_force_trace_matches_oracle_across_machine_sizes(num_processors):
    gen = BarnesHutTraceGenerator.from_plummer(
        128, seed=2, theta=0.7, num_processors=num_processors
    )
    _assert_force_phase_matches(gen)


def test_borderline_theta_matches_oracle():
    """Theta equal to a visited pair's exact ratio, or one ulp either
    side of it: the batched walk re-decides the near tie exactly as the
    scalar walk does."""
    base = BarnesHutTraceGenerator.from_plummer(64, seed=9)
    tree, bodies = base.tree, base.partitions[0]

    def scalar_ratio(cell, body):
        delta = cell.com - tree.bodies.positions[body]
        return cell.side / (float(np.sqrt(delta @ delta)) + 1e-300)

    # The largest ratio of any cell accepted at theta=1.0: every ancestor
    # of that cell has ratio >= 1.0, so it stays visited for theta <= 1.0.
    ratio = max(
        scalar_ratio(cell, int(body))
        for body in bodies
        for cell, event in bh_trace_oracle.decisions(tree, int(body), 1.0)
        if event == "accept"
    )
    assert ratio < 1.0
    opened = {}
    for theta in (np.nextafter(ratio, -np.inf), ratio, np.nextafter(ratio, np.inf)):
        gen = BarnesHutTraceGenerator.from_plummer(64, seed=9, theta=float(theta))
        assert_same_trace(
            gen.trace_for_processor(0), bh_trace_oracle.force_trace(gen, 0)
        )
        assert gen.stats == bh_trace_oracle.walk_stats(tree, bodies, theta)
        opened[theta] = gen.stats.cells_opened
    # The pair is opened at its own ratio (not < theta) and accepted one
    # ulp above it.
    assert opened[ratio] > opened[np.nextafter(ratio, np.inf)]


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_oracle_counts_match_physics_walk(theta):
    """The oracle's decision walk makes the physics walk's decisions:
    equal open/accept/body counts for every body."""
    gen = BarnesHutTraceGenerator.from_plummer(64, seed=4, theta=theta)
    for body in range(len(gen.bodies)):
        stats = WalkStats()
        accelerate_body(gen.tree, body, theta, stats=stats)
        assert bh_trace_oracle.walk_stats(gen.tree, [body], theta) == stats


def test_walk_statistics_still_recorded(generator):
    generator.trace_for_processor(1)
    assert generator.stats.interactions > 0
    assert generator.interactions_per_body(1) > 0
    assert generator.stats == bh_trace_oracle.walk_stats(
        generator.tree, generator.partitions[1], generator.theta
    )
