"""The columnar FFT trace generator against the per-reference oracle
in :mod:`tests.apps.fft_trace_oracle`: byte-identical traces and equal
flop counts for every processor, in memory and streamed."""

import pytest

from repro.apps.fft.trace import FFTTraceGenerator
from tests.apps import fft_trace_oracle
from tests.apps.trace_parity import assert_same_manifest, assert_same_trace, streaming

SHAPES = [
    (2**13, 4, 32),  # 11 local levels: passes of 5, 5 and a radix-2 remainder
    (2**10, 2, 8),  # 9 local levels in radix-8 passes, two stages
    (2**8, 4, 2),
]


@pytest.mark.parametrize("n, p, radix", SHAPES)
def test_matches_oracle_for_every_pid(n, p, radix):
    gen = FFTTraceGenerator(n, p, internal_radix=radix)
    for pid in range(p):
        got = gen.trace_for_processor(pid)
        want, flops = fft_trace_oracle.trace(gen, pid)
        assert_same_trace(got, want)
        assert gen.flops == flops


def test_radix_is_not_left_changed_by_a_remainder_pass():
    gen = FFTTraceGenerator(2**13, 4, internal_radix=32)
    gen.trace_for_processor(0)
    assert gen.radix == 32


@pytest.mark.parametrize("n, p, radix", SHAPES[:2])
def test_streamed_shards_identical(n, p, radix, tmp_path):
    gen = FFTTraceGenerator(n, p, internal_radix=radix)
    with streaming(tmp_path):
        for pid in range(p):
            got = gen.trace_for_processor(pid)
            want, flops = fft_trace_oracle.trace(gen, pid)
            assert_same_manifest(got, want)
            assert gen.flops == flops
