"""Per-reference blocked-LU trace emitter: the test oracle for the
columnar generator in :mod:`repro.apps.lu.trace`.

Emits one processor's trace one reference at a time through
``ReferenceBuilder.read``/``write`` and bounds-checked ``Region.element``
addressing, exactly as the generator did before it expanded per-kernel
index templates with numpy.  :mod:`tests.apps.cholesky_trace_oracle`
reuses the kernels.
"""

from __future__ import annotations

from repro.apps.lu.trace import LUTraceGenerator
from tests.harness.builder import ReferenceBuilder


class Kernels:
    """The per-reference LU kernels over one generator's matrix."""

    def __init__(self, gen: LUTraceGenerator, tb) -> None:
        self.gen = gen
        self.tb = tb
        self.flops = 0.0

    def elem(self, block_i: int, block_j: int, i: int, j: int) -> int:
        b = self.gen.block_size
        block_index = block_i * self.gen.num_blocks + block_j
        return self.gen.matrix.element(block_index * b * b + j * b + i)

    def factor_block(self, bk: int) -> None:
        tb, elem, b = self.tb, self.elem, self.gen.block_size
        for k in range(b):
            tb.read(elem(bk, bk, k, k))
            for i in range(k + 1, b):
                tb.read(elem(bk, bk, i, k))
                tb.write(elem(bk, bk, i, k))
            for j in range(k + 1, b):
                tb.read(elem(bk, bk, k, j))
                for i in range(k + 1, b):
                    tb.read(elem(bk, bk, i, k))
                    tb.read(elem(bk, bk, i, j))
                    tb.write(elem(bk, bk, i, j))
                    self.flops += 2
        self.flops += b * b  # divisions

    def triangular_solve(self, diag: int, bi: int, bj: int) -> None:
        tb, elem, b = self.tb, self.elem, self.gen.block_size
        for j in range(b):
            for k in range(b):
                tb.read(elem(diag, diag, k, k))
                for i in range(k + 1, b):
                    tb.read(elem(diag, diag, i, k))
                    tb.read(elem(bi, bj, i, j))
                    tb.write(elem(bi, bj, i, j))
                    self.flops += 2

    def block_update(self, bi: int, bj: int, bk: int) -> None:
        tb, elem, b = self.tb, self.elem, self.gen.block_size
        for j in range(b):
            for k in range(b):
                tb.read(elem(bk, bj, k, j))
                for i in range(b):
                    tb.read(elem(bi, bk, i, k))
                    tb.read(elem(bi, bj, i, j))
                    tb.write(elem(bi, bj, i, j))
                    self.flops += 2

    def symmetric_update(self, bi: int, bj: int, bk: int) -> None:
        tb, elem, b = self.tb, self.elem, self.gen.block_size
        for j in range(b):
            for k in range(b):
                tb.read(elem(bj, bk, j, k))
                for i in range(b):
                    tb.read(elem(bi, bk, i, k))
                    tb.read(elem(bi, bj, i, j))
                    tb.write(elem(bi, bj, i, j))
                    self.flops += 2


def trace(gen: LUTraceGenerator, pid: int, max_k=None, skip_k: int = 0):
    """``(trace, flops)`` of processor ``pid`` through the factorization."""
    kernels = Kernels(gen, ReferenceBuilder())
    owns = gen.decomp.owns
    nb = gen.num_blocks
    last_k = nb if max_k is None else min(nb, max_k)
    for bk in range(skip_k, last_k):
        if owns(pid, bk, bk):
            kernels.factor_block(bk)
        for bi in range(bk + 1, nb):
            if owns(pid, bi, bk):
                kernels.triangular_solve(bk, bi, bk)
        for bj in range(bk + 1, nb):
            if owns(pid, bk, bj):
                kernels.triangular_solve(bk, bk, bj)
        for bj in range(bk + 1, nb):
            for bi in range(bk + 1, nb):
                if owns(pid, bi, bj):
                    kernels.block_update(bi, bj, bk)
    return kernels.tb.build(), kernels.flops
