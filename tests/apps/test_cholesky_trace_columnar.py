"""The columnar blocked-Cholesky trace generator against the
per-reference oracle in :mod:`tests.apps.cholesky_trace_oracle`:
byte-identical traces and equal flop counts for every processor, in
memory and streamed."""

import pytest

from repro.apps.lu.cholesky_trace import CholeskyTraceGenerator
from tests.apps import cholesky_trace_oracle
from tests.apps.trace_parity import assert_same_manifest, assert_same_trace, streaming

CASES = [
    pytest.param((64, 8, 4), {}, id="n64-b8-p4"),
    pytest.param((48, 4, 9), {}, id="n48-b4-p9"),
    pytest.param((64, 8, 4), {"max_k": 5, "skip_k": 2}, id="skip2-max5"),
]


@pytest.mark.parametrize("shape, window", CASES)
def test_matches_oracle_for_every_pid(shape, window):
    gen = CholeskyTraceGenerator(*shape)
    for pid in range(gen.decomp.num_processors):
        got = gen.trace_for_processor(pid, **window)
        want, flops = cholesky_trace_oracle.trace(gen, pid, **window)
        assert_same_trace(got, want)
        assert gen.flops == flops


def test_streamed_shards_identical(tmp_path):
    gen = CholeskyTraceGenerator(64, 8, 4)
    with streaming(tmp_path):
        for pid in range(gen.decomp.num_processors):
            got = gen.trace_for_processor(pid)
            want, flops = cholesky_trace_oracle.trace(gen, pid)
            assert_same_manifest(got, want)
            assert gen.flops == flops
