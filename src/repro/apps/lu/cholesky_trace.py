"""Memory-reference trace generator for blocked Cholesky.

Demonstrates the paper's Section 3 claim that the LU analysis "applies
to a wider set of applications" including dense Cholesky: the reference
structure — factor the diagonal block, solve the panel, rank-B trailing
update — is identical, so the working-set hierarchy (two block columns;
one block; panel blocks; the partition) reappears with half the work
and only the lower triangle of data.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.lu.trace import LUTraceGenerator
from repro.mem.shards import trace_builder
from repro.mem.trace import Trace
from repro.obs.tracing import traced


class CholeskyTraceGenerator(LUTraceGenerator):
    """Per-processor traces for blocked Cholesky (lower triangle only).

    Shares the matrix layout, scatter decomposition and kernel
    reference patterns of :class:`LUTraceGenerator`; only the iteration
    space changes, and the trailing update is the symmetric
    ``A[I,J] -= A[I,K] @ A[J,K]^T``: its scalar stream walks block
    (J,K) row-wise (the transpose access) while columns of (I,K) and
    (I,J) stay live — the same two-block-column lev1WS as LU.
    """

    @traced("apps.cholesky.trace_for_processor")
    def trace_for_processor(
        self, pid: int, max_k: Optional[int] = None, skip_k: int = 0
    ) -> Trace:
        """Trace processor ``pid`` through the Cholesky factorization."""
        self.flops = 0.0
        tb = trace_builder()
        nb = self.num_blocks
        update = self._kernels.symmetric_update
        last_k = nb if max_k is None else min(nb, max_k)
        for bk in range(skip_k, last_k):
            self._trace_panel(tb, pid, bk)
            bi, bj = self._trailing(pid, bk)
            lower = bi >= bj
            bi, bj = bi[lower], bj[lower]
            blocks = np.stack([bj * nb + bk, bi * nb + bk, bi * nb + bj], axis=1)
            self._emit(tb, update, blocks)
        return tb.build()
