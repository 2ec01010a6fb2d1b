"""The columnar Barnes-Hut trace generator against the per-reference
oracle in :mod:`tests.apps.bh_trace_oracle`: byte-identical force,
build and moments traces for every processor."""

import numpy as np
import pytest

from repro.apps.barnes_hut.trace import BarnesHutTraceGenerator
from tests.apps import bh_trace_oracle

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


def _assert_same(got, want):
    assert got.addrs.dtype == want.addrs.dtype == np.int64
    assert got.kinds.dtype == want.kinds.dtype == np.uint8
    assert np.array_equal(got.addrs, want.addrs)
    assert np.array_equal(got.kinds, want.kinds)


@pytest.mark.parametrize("method, oracle", PHASES, ids=[m for m, _ in PHASES])
def test_matches_oracle_for_every_pid(generator, method, oracle):
    for pid in range(generator.num_processors):
        _assert_same(getattr(generator, method)(pid), oracle(generator, pid))


def test_monopole_force_trace_matches_oracle():
    gen = BarnesHutTraceGenerator.from_plummer(
        64, seed=3, num_processors=2, quadrupole=False
    )
    for pid in range(2):
        _assert_same(gen.trace_for_processor(pid), bh_trace_oracle.force_trace(gen, pid))


def test_walk_statistics_still_recorded(generator):
    generator.trace_for_processor(1)
    assert generator.stats.interactions > 0
    assert generator.interactions_per_body(1) > 0
