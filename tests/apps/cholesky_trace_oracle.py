"""Per-reference blocked-Cholesky trace emitter: the test oracle for
:class:`repro.apps.lu.cholesky_trace.CholeskyTraceGenerator`, built on
the LU kernels of :mod:`tests.apps.lu_trace_oracle`."""

from __future__ import annotations

from repro.apps.lu.cholesky_trace import CholeskyTraceGenerator
from repro.mem.shards import trace_builder
from tests.apps.lu_trace_oracle import Kernels


def trace(gen: CholeskyTraceGenerator, pid: int, max_k=None, skip_k: int = 0):
    """``(trace, flops)`` of processor ``pid`` through the factorization."""
    kernels = Kernels(gen, trace_builder())
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
            for bi in range(bj, nb):  # lower triangle only
                if owns(pid, bi, bj):
                    kernels.symmetric_update(bi, bj, bk)
    return kernels.tb.build(), kernels.flops
