"""The columnar CG trace generator against the per-reference oracle in
:mod:`tests.apps.cg_trace_oracle`: byte-identical traces and equal flop
counts for every processor, in memory and streamed."""

import pytest

from repro.apps.cg.trace import CGTraceGenerator
from tests.apps import cg_trace_oracle
from tests.apps.trace_parity import assert_same_manifest, assert_same_trace, streaming

CASES = [
    pytest.param((16, 4, 2), {}, id="2d"),
    pytest.param((8, 8, 3), {"iterations": 1}, id="3d"),
    pytest.param((12, 27, 3), {}, id="3d-27"),
    pytest.param((32, 4, 2), {"tile": 5}, id="2d-tile"),
]


@pytest.mark.parametrize("shape, options", CASES)
def test_matches_oracle_for_every_pid(shape, options):
    n, p, dims = shape
    gen = CGTraceGenerator(n, p, dims=dims)
    for pid in range(p):
        got = gen.trace_for_processor(pid, **options)
        want, flops = cg_trace_oracle.trace(gen, pid, **options)
        assert_same_trace(got, want)
        assert gen.flops == flops


@pytest.mark.parametrize("shape, options", CASES)
def test_streamed_shards_identical(shape, options, tmp_path):
    n, p, dims = shape
    gen = CGTraceGenerator(n, p, dims=dims)
    with streaming(tmp_path):
        for pid in range(p):
            got = gen.trace_for_processor(pid, **options)
            want, flops = cg_trace_oracle.trace(gen, pid, **options)
            assert_same_manifest(got, want)
            assert gen.flops == flops


def test_blocked_sweep_rejects_3d_and_bad_tiles():
    with pytest.raises(ValueError):
        CGTraceGenerator(8, 8, dims=3).trace_for_processor(0, tile=2)
    with pytest.raises(ValueError):
        CGTraceGenerator(16, 4).trace_for_processor(0, tile=0)
