"""Per-reference FFT trace emitter: the test oracle for the columnar
generator in :mod:`repro.apps.fft.trace`.

Emits one processor's trace one reference at a time through
``ReferenceBuilder.read``/``write`` and bounds-checked ``Region.element``
addressing, exactly as the generator did before it built each pass as
one numpy broadcast.
"""

from __future__ import annotations

import math

from repro.apps.fft.trace import FFTTraceGenerator
from repro.apps.fft.transform import stage_structure
from repro.units import DOUBLE_WORD
from tests.harness.builder import ReferenceBuilder


def trace(gen: FFTTraceGenerator, pid: int = 0):
    """``(trace, flops)`` of processor ``pid`` through every stage."""
    tb = ReferenceBuilder()
    flops = 0.0
    limit = gen.twiddles.size // DOUBLE_WORD

    def point(region, index):
        return (region.element(2 * index), region.element(2 * index + 1))

    def local_pass(base, radix, stride):
        nonlocal flops
        cursor = 0  # the table is re-swept every pass
        for group_base in range(base, base + gen.points_local, radix * stride):
            for offset in range(stride):
                indices = [group_base + offset + k * stride for k in range(radix)]
                for output_index in range(radix):
                    for index in indices:
                        for addr in point(gen.data, index):
                            tb.read(addr)
                    if output_index > 0:
                        for _ in range(2):
                            tb.read(gen.twiddles.element(cursor % limit))
                            cursor += 1
                for index in indices:
                    for addr in point(gen.data, index):
                        tb.write(addr)
                flops += 5.0 * radix * math.log2(radix)

    def exchange(base):
        d = gen.points_local
        p = gen.num_processors
        for local in range(d):
            for addr in point(gen.data, base + local):
                tb.read(addr)
            dest = (local % p) * d + (local // p)
            for addr in point(gen.exchange, dest % gen.n):
                tb.write(addr)

    base = pid * gen.points_local
    num_stages, stages = stage_structure(gen.n, gen.points_local)
    levels_per_pass = int(math.log2(gen.radix))
    for stage_index, levels in enumerate(stages):
        done = 0
        stride = 1
        while done < levels:
            step = min(levels_per_pass, levels - done)
            radix = 2**step
            local_pass(base, radix, stride)
            stride *= radix
            done += step
        if stage_index != num_stages - 1:
            exchange(base)
    return tb.build(), flops
