"""The columnar blocked-LU trace generator against the per-reference
oracle in :mod:`tests.apps.lu_trace_oracle`: byte-identical traces and
equal flop counts for every processor, in memory and streamed."""

import pytest

from repro.apps.lu.trace import LUTraceGenerator
from tests.apps import lu_trace_oracle
from tests.apps.trace_parity import assert_same_manifest, assert_same_trace, streaming

CASES = [
    pytest.param((32, 8, 4), {}, id="n32-b8-p4"),
    pytest.param((48, 4, 9), {}, id="n48-b4-p9"),
    pytest.param((64, 8, 4), {"max_k": 5, "skip_k": 2}, id="skip2-max5"),
    pytest.param((64, 16, 4), {"max_k": 1}, id="max1"),
]


@pytest.mark.parametrize("shape, window", CASES)
def test_matches_oracle_for_every_pid(shape, window):
    gen = LUTraceGenerator(*shape)
    for pid in range(gen.decomp.num_processors):
        got = gen.trace_for_processor(pid, **window)
        want, flops = lu_trace_oracle.trace(gen, pid, **window)
        assert_same_trace(got, want)
        assert gen.flops == flops


@pytest.mark.parametrize("shape, window", CASES[::2])
def test_streamed_shards_identical(shape, window, tmp_path):
    gen = LUTraceGenerator(*shape)
    with streaming(tmp_path):
        for pid in range(gen.decomp.num_processors):
            got = gen.trace_for_processor(pid, **window)
            want, flops = lu_trace_oracle.trace(gen, pid, **window)
            assert_same_manifest(got, want)
            assert gen.flops == flops
