"""Memory-reference trace generator for blocked dense LU.

Emits the double-word reference stream of one processor (or all
processors) executing the Section 3.1 block algorithm under a 2-D
scatter decomposition.  The inner kernels are column-oriented (SAXPY
form), which is what produces the paper's level-1 working set of *two
block columns*.

Storage layout: the matrix is stored block-major (block (I,J)
contiguous), column-major within a block — the layout the paper assumes
when it notes that "the cache conflict problem can easily be avoided"
for this application.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, NamedTuple, Optional

import numpy as np

from repro.mem.address import AddressSpace
from repro.mem.trace import READ, WRITE, Trace, TraceBuilder
from repro.obs.tracing import traced
from repro.units import DOUBLE_WORD

if TYPE_CHECKING:
    from repro.validate.report import ValidationReport


@dataclass(frozen=True)
class ScatterDecomposition:
    """2-D scatter (cyclic) assignment of blocks to a processor grid.

    Block (I, J) belongs to processor ``(I mod P_rows, J mod P_cols)``
    (Section 3.1, Figure 1).
    """

    p_rows: int
    p_cols: int

    @classmethod
    def square(cls, num_processors: int) -> "ScatterDecomposition":
        side = int(round(math.sqrt(num_processors)))
        if side * side != num_processors:
            raise ValueError("square decomposition needs a square processor count")
        return cls(side, side)

    @property
    def num_processors(self) -> int:
        return self.p_rows * self.p_cols

    def owner(self, block_i: int, block_j: int) -> int:
        """Linear processor id owning block (I, J)."""
        return (block_i % self.p_rows) * self.p_cols + (block_j % self.p_cols)

    def owns(self, pid: int, block_i: int, block_j: int) -> bool:
        return self.owner(block_i, block_j) == pid

    def blocks_owned(self, pid: int, num_blocks: int) -> int:
        """How many blocks of an ``num_blocks x num_blocks`` block matrix
        processor ``pid`` owns."""
        row = pid // self.p_cols
        col = pid % self.p_cols
        rows = len(range(row, num_blocks, self.p_rows))
        cols = len(range(col, num_blocks, self.p_cols))
        return rows * cols


class _Kernel(NamedTuple):
    """One kernel's reference template over its operand blocks.

    Reference ``r`` touches element ``offset[r]`` (column-major within
    a block: element (i, j) is ``j * B + i``) of operand block
    ``operand[r]`` with access ``kind[r]``; ``flops`` counts one
    invocation's floating-point operations.
    """

    operands: int
    operand: np.ndarray
    offset: np.ndarray
    kind: np.ndarray
    flops: int


class _Kernels(NamedTuple):
    factor: _Kernel  # operand 0: the diagonal block
    solve: _Kernel  # operands: the diagonal block, the target block
    update: _Kernel  # operands: (K,J) scalars, (I,K) columns, (I,J)
    symmetric_update: _Kernel  # operands: (J,K) scalars, (I,K), (I,J)


def _kernel_templates(b: int) -> _Kernels:
    """The column-oriented (SAXPY form) kernel templates for block size
    ``b``: a fixed (j, k, i) pattern that :meth:`LUTraceGenerator._emit`
    offsets by the operands' block base addresses."""

    def ref(operand, i, j, kind) -> np.ndarray:
        """References as ``(..., 3)`` rows of (operand, offset, kind)."""
        return np.stack(np.broadcast_arrays(operand, j * b + i, kind), axis=-1)

    def saxpy(*refs) -> np.ndarray:
        """Interleave per-row references over the innermost (i) axis:
        ``a(i0) b(i0) c(i0) a(i1) ...``."""
        rows = np.stack(np.broadcast_arrays(*refs), axis=-2)
        return rows.reshape(rows.shape[:-3] + (rows.shape[-3] * len(refs), 3))

    def kernel(operands: int, refs, flops: int) -> _Kernel:
        table = np.concatenate([r.reshape(-1, 3) for r in refs])
        return _Kernel(
            operands, table[:, 0], table[:, 1], table[:, 2].astype(np.uint8), flops
        )

    i_all = np.arange(b)
    # Step 2, unblocked LU of the diagonal block: per pivot k, read the
    # pivot, scale the column below it, then update each later column j
    # with one SAXPY over the rows below the pivot.
    factor = []
    for k in range(b):
        i = np.arange(k + 1, b)
        j = i[:, None]
        factor += [
            ref(0, k, k, READ),
            saxpy(ref(0, i, k, READ), ref(0, i, k, WRITE)),
            np.concatenate(
                [
                    ref(0, k, j, READ),
                    saxpy(
                        ref(0, i, k, READ), ref(0, i, j, READ), ref(0, i, j, WRITE)
                    ),
                ],
                axis=1,
            ),
        ]
    # Step 3, triangular solve, column by column of the target block:
    # each column j is updated with every column k of the diagonal block.
    j = i_all[:, None]
    solve = []
    for k in range(b):
        i = np.arange(k + 1, b)
        solve += [
            np.broadcast_to(ref(0, k, k, READ), (b, 1, 3)),
            saxpy(ref(0, i, k, READ), ref(1, i, j, READ), ref(1, i, j, WRITE)),
        ]
    solve = [np.concatenate(solve, axis=1)]
    # Step 6, trailing update A[I,J] -= A[I,K] @ (scalars): per column
    # j and term k, one scalar read and a SAXPY down column j.
    j, k = i_all[:, None, None], i_all[None, :, None]

    def update(scalar_row, scalar_col) -> np.ndarray:
        return np.concatenate(
            [
                ref(0, scalar_row, scalar_col, READ),
                saxpy(
                    ref(1, i_all, k, READ),
                    ref(2, i_all, j, READ),
                    ref(2, i_all, j, WRITE),
                ),
            ],
            axis=-2,
        )

    below = np.arange(b)[::-1]  # rows below each pivot k: b - k - 1
    return _Kernels(
        factor=kernel(1, factor, b * b + 2 * int((below**2).sum())),
        solve=kernel(2, solve, b * b * (b - 1)),
        update=kernel(3, [update(k, j)], 2 * b**3),
        # Cholesky's scalars walk block (J,K) row-wise: the transpose.
        symmetric_update=kernel(3, [update(j, k)], 2 * b**3),
    )


class LUTraceGenerator:
    """Generates per-processor reference traces for blocked LU.

    Args:
        n: Matrix order (multiple of ``block_size``).
        block_size: Block dimension B.
        num_processors: Perfect-square processor count.
        seed: Determinism-audit seed, recorded for provenance.  The LU
            reference pattern depends only on the problem shape (matrix
            *values* never steer control flow), so equal-seed runs are
            byte-identical by construction; the seed also parameterizes
            :meth:`self_check`'s random test matrix.
    """

    def __init__(
        self, n: int, block_size: int, num_processors: int, seed: int = 0
    ) -> None:
        if n % block_size != 0:
            raise ValueError("n must be a multiple of block_size")
        self.seed = seed
        self.n = n
        self.block_size = block_size
        self.num_blocks = n // block_size
        self.decomp = ScatterDecomposition.square(num_processors)
        self.space = AddressSpace()
        self.matrix = self.space.allocate_array("matrix A", n * n)
        self.flops = 0.0

    # ------------------------------------------------------------------
    # Kernel reference patterns
    # ------------------------------------------------------------------

    @functools.cached_property
    def _kernels(self) -> _Kernels:
        """This block size's kernel templates, built on first use."""
        return _kernel_templates(self.block_size)

    def _emit(self, tb: TraceBuilder, kernel: _Kernel, blocks) -> None:
        """Append ``kernel``'s template once per row of ``blocks``, the
        linear block indices of the kernel's operands."""
        blocks = np.asarray(blocks, dtype=np.int64).reshape(-1, kernel.operands)
        if not blocks.shape[0]:
            return
        elements = blocks[:, kernel.operand] * (self.block_size**2) + kernel.offset
        tb.extend_arrays(
            self.matrix.elements(elements.reshape(-1)),
            np.tile(kernel.kind, blocks.shape[0]),
        )
        self.flops += blocks.shape[0] * kernel.flops

    def _owned(self, pid: int, start: int, axis: int) -> np.ndarray:
        """Block rows (``axis`` 0) or columns (1) from ``start`` on whose
        blocks ``pid`` can own under the scatter decomposition."""
        period = self.decomp.p_rows if axis == 0 else self.decomp.p_cols
        mine = pid // self.decomp.p_cols if axis == 0 else pid % self.decomp.p_cols
        candidates = np.arange(start, self.num_blocks, dtype=np.int64)
        return candidates[candidates % period == mine]

    def _trace_panel(self, tb: TraceBuilder, pid: int, bk: int) -> None:
        """Steps 2-3 of iteration ``bk``: factor the diagonal block,
        then solve the column panel below it."""
        nb = self.num_blocks
        kernels = self._kernels
        diag = bk * nb + bk
        if self.decomp.owns(pid, bk, bk):
            self._emit(tb, kernels.factor, [diag])
        if bk % self.decomp.p_cols == pid % self.decomp.p_cols:
            rows = self._owned(pid, bk + 1, axis=0)
            panel = np.stack([np.full_like(rows, diag), rows * nb + bk], axis=1)
            self._emit(tb, kernels.solve, panel)

    def _trailing(self, pid: int, bk: int):
        """``(bi, bj)`` of the trailing blocks ``pid`` owns after
        iteration ``bk``, block column by block column."""
        rows = self._owned(pid, bk + 1, axis=0)
        cols = self._owned(pid, bk + 1, axis=1)
        bj, bi = np.meshgrid(cols, rows, indexing="ij")
        return bi.reshape(-1), bj.reshape(-1)

    @traced("apps.lu.trace_for_processor")
    def trace_for_processor(
        self, pid: int, max_k: Optional[int] = None, skip_k: int = 0
    ) -> Trace:
        """Trace of processor ``pid``'s references through the
        factorization.

        Each iteration ``bk`` factors the diagonal block, solves the
        column and row panels against it and updates the trailing
        blocks (Section 3.1), every kernel in the column-oriented
        order of :func:`_kernel_templates`.

        Args:
            pid: Linear processor id.
            max_k: Stop after this many K iterations (None = all).
            skip_k: Skip the first K iterations (cold-start exclusion
                happens instead via the profiler's ``warmup``; this is
                for trimming trace length).
        """
        self.flops = 0.0
        tb = TraceBuilder()
        nb = self.num_blocks
        kernels = self._kernels
        last_k = nb if max_k is None else min(nb, max_k)
        for bk in range(skip_k, last_k):
            self._trace_panel(tb, pid, bk)
            if bk % self.decomp.p_rows == pid // self.decomp.p_cols:
                cols = self._owned(pid, bk + 1, axis=1)
                panel = np.stack([np.full_like(cols, bk * nb + bk), bk * nb + cols], 1)
                self._emit(tb, kernels.solve, panel)
            bi, bj = self._trailing(pid, bk)
            blocks = np.stack([bk * nb + bj, bi * nb + bk, bi * nb + bj], axis=1)
            self._emit(tb, kernels.update, blocks)
        return tb.build()

    def traces_for_all(self, max_k: Optional[int] = None) -> List[Trace]:
        """Per-processor traces for the whole machine (for the
        multiprocessor communication-miss analysis)."""
        return [
            self.trace_for_processor(pid, max_k=max_k)
            for pid in range(self.decomp.num_processors)
        ]

    @property
    def dataset_bytes(self) -> int:
        return self.n * self.n * DOUBLE_WORD

    def blocks_per_processor(self, pid: int = 0) -> int:
        return self.decomp.blocks_owned(pid, self.num_blocks)

    def self_check(self) -> "ValidationReport":
        """Mathematical self-check of the traced algorithm: factor a
        random diagonally dominant matrix of this generator's shape and
        verify the ``L @ U`` reconstruction residual.

        Returns the passing
        :class:`~repro.validate.report.ValidationReport`; raises
        :class:`~repro.runtime.errors.SelfCheckError` on failure.
        """
        from repro.validate.selfchecks import assert_self_check

        return assert_self_check(
            "lu", seed=self.seed, n=self.n, block_size=self.block_size
        )
