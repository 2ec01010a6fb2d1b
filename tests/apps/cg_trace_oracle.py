"""Per-reference CG trace emitter: the test oracle for the columnar
generator in :mod:`repro.apps.cg.trace`.

Emits one processor's trace one reference at a time through
``ReferenceBuilder.read``/``write`` and bounds-checked ``Region.element``
addressing, exactly as the generator did before it expressed the
matrix-vector product and the vector-op sweep over the local point
set with numpy.
"""

from __future__ import annotations

from repro.apps.cg.trace import CGTraceGenerator
from tests.harness.builder import ReferenceBuilder


def _local_ranges(gen: CGTraceGenerator, pid: int):
    ranges = []
    remaining = pid
    for axis in range(gen.dims):
        stride = gen.proc_side ** (gen.dims - 1 - axis)
        block = remaining // stride
        remaining %= stride
        ranges.append(range(block * gen.sub, (block + 1) * gen.sub))
    return ranges


def _local_points(gen: CGTraceGenerator, pid: int):
    ranges = _local_ranges(gen, pid)
    if gen.dims == 2:
        for i in ranges[0]:
            for j in ranges[1]:
                yield (i, j)
    else:
        for i in ranges[0]:
            for j in ranges[1]:
                for k in ranges[2]:
                    yield (i, j, k)


def _point_index(gen: CGTraceGenerator, coords) -> int:
    index = 0
    for c in coords:
        index = index * gen.n + c
    return index


def _neighbors(gen: CGTraceGenerator, coords):
    out = []
    for axis in range(gen.dims):
        for delta in (-1, 1):
            moved = list(coords)
            moved[axis] += delta
            if 0 <= moved[axis] < gen.n:
                out.append(tuple(moved))
    return out


def trace(gen: CGTraceGenerator, pid: int, iterations: int = 2, tile=None):
    """``(trace, flops)`` of ``iterations`` CG iterations on ``pid``."""
    tb = ReferenceBuilder()
    flops = 0.0

    def vec(region, coords) -> int:
        return region.element(_point_index(gen, coords))

    def matvec_point(coords) -> None:
        nonlocal flops
        base = _point_index(gen, coords) * gen.stencil
        for s in range(gen.stencil):
            tb.read(gen.coeffs.element(base + s))
        tb.read(vec(gen.p_vec, coords))
        for neighbor in _neighbors(gen, coords):
            tb.read(vec(gen.p_vec, neighbor))
        tb.write(vec(gen.q_vec, coords))
        flops += 2 * gen.stencil

    def matvec() -> None:
        if tile is None:
            for coords in _local_points(gen, pid):
                matvec_point(coords)
            return
        rows, cols = _local_ranges(gen, pid)
        for col_start in range(cols.start, cols.stop, tile):
            col_stop = min(col_start + tile, cols.stop)
            for i in rows:
                for j in range(col_start, col_stop):
                    matvec_point((i, j))

    def vector_ops() -> None:
        nonlocal flops
        for coords in _local_points(gen, pid):
            p_addr = vec(gen.p_vec, coords)
            q_addr = vec(gen.q_vec, coords)
            x_addr = vec(gen.x_vec, coords)
            r_addr = vec(gen.r_vec, coords)
            tb.read(p_addr)
            tb.read(q_addr)
            tb.read(x_addr)
            tb.write(x_addr)
            tb.read(r_addr)
            tb.write(r_addr)
            tb.write(p_addr)
            flops += 10

    for _ in range(iterations):
        matvec()
        vector_ops()
    return tb.build(), flops
