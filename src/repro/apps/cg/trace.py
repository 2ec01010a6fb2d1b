"""Memory-reference trace generator for conjugate gradient.

Emits a processor's double-word reference stream over CG iterations on
an ``n x n`` 2-D grid (5-point stencil) or an ``n^3`` 3-D grid (7-point
stencil).  The matrix-vector multiply sweeps the processor's subgrid in
row-major order reading the stencil neighbours of the ``p`` vector —
the origin of the paper's lev1WS of "the x values from three adjacent
sub-rows" — plus the streaming coefficient reads that keep the miss
rate high until the lev2WS (the entire local partition) fits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.mem.address import AddressSpace
from repro.mem.trace import READ, WRITE, Trace, TraceBuilder
from repro.mem.shards import trace_builder
from repro.obs.tracing import traced
from repro.units import DOUBLE_WORD

if TYPE_CHECKING:
    from repro.validate.report import ValidationReport


class CGTraceGenerator:
    """Trace generator for CG on regular grids.

    Args:
        n: Grid side length.
        num_processors: P; square for 2-D grids, cube for 3-D.
        dims: 2 or 3.
        seed: Determinism-audit seed, recorded for provenance.  The
            stencil sweep depends only on the grid shape, so equal-seed
            runs are byte-identical by construction; the seed also
            parameterizes :meth:`self_check`'s random right-hand side.
    """

    def __init__(
        self, n: int, num_processors: int, dims: int = 2, seed: int = 0
    ) -> None:
        self.seed = seed
        if dims not in (2, 3):
            raise ValueError("dims must be 2 or 3")
        root = round(num_processors ** (1.0 / dims))
        if root**dims != num_processors:
            raise ValueError(
                f"num_processors must be a perfect {'square' if dims == 2 else 'cube'}"
            )
        if n % root != 0:
            raise ValueError("grid side must divide evenly among processors")
        self.n = n
        self.dims = dims
        self.num_processors = num_processors
        self.proc_side = root
        self.sub = n // root
        num_points = n**dims
        self.stencil = 5 if dims == 2 else 7
        self.space = AddressSpace()
        # Shared vectors, indexed by global point id.
        self.p_vec = self.space.allocate_array("p", num_points)
        self.q_vec = self.space.allocate_array("q", num_points)
        self.x_vec = self.space.allocate_array("x", num_points)
        self.r_vec = self.space.allocate_array("r", num_points)
        # Coefficients: stencil_size doubles per point.
        self.coeffs = self.space.allocate_array("A", num_points * self.stencil)
        self.flops = 0.0

    # -- local geometry ---------------------------------------------------

    def _local_ranges(self, pid: int) -> List[range]:
        """The subgrid coordinate ranges owned by ``pid``."""
        ranges = []
        remaining = pid
        for axis in range(self.dims):
            stride = self.proc_side ** (self.dims - 1 - axis)
            block = remaining // stride
            remaining %= stride
            ranges.append(range(block * self.sub, (block + 1) * self.sub))
        return ranges

    def _local_points(self, pid: int, tile: Optional[int] = None) -> np.ndarray:
        """Global (row-major) ids of ``pid``'s subgrid points in sweep
        order: row-major, or with ``tile`` (2-D only) in ``tile``-wide
        column strips, row-major within each strip."""
        ranges = self._local_ranges(pid)
        coords = np.meshgrid(
            *(np.arange(r.start, r.stop) for r in ranges), indexing="ij"
        )
        points = np.zeros(coords[0].shape, dtype=np.int64)
        for c in coords:
            points = points * self.n + c
        points = points.reshape(-1)
        if tile is not None:
            strip = (coords[1].reshape(-1) - ranges[1].start) // tile
            points = points[np.argsort(strip, kind="stable")]
        return points

    # -- trace emission -----------------------------------------------------

    def _trace_matvec(self, tb: TraceBuilder, points: np.ndarray) -> None:
        """``q = A p`` over ``points`` in order: each point reads its
        ``stencil`` coefficients, its own ``p`` and its in-grid stencil
        neighbours' ``p`` (clipped at the boundary), then writes ``q``."""
        n, dims = self.n, self.dims
        always = np.ones((points.shape[0], 1), dtype=bool)
        coefficients = points[:, None] * self.stencil + np.arange(self.stencil)
        columns = [
            self.coeffs.elements(coefficients),
            self.p_vec.elements(points)[:, None],
        ]
        present = [np.repeat(always, self.stencil + 1, axis=1)]
        for axis in range(dims):
            step = n ** (dims - 1 - axis)
            coord = points // step % n
            for delta in (-1, 1):
                inside = (coord + delta >= 0) & (coord + delta < n)
                neighbor = np.where(inside, points + delta * step, points)
                columns.append(self.p_vec.elements(neighbor)[:, None])
                present.append(inside[:, None])
        columns.append(self.q_vec.elements(points)[:, None])
        present.append(always)
        present = np.hstack(present)
        kinds = np.full(present.shape[1], READ, dtype=np.uint8)
        kinds[-1] = WRITE
        tb.extend_arrays(
            np.hstack(columns)[present], np.broadcast_to(kinds, present.shape)[present]
        )
        self.flops += points.shape[0] * 2 * self.stencil

    def _trace_vector_ops(self, tb: TraceBuilder, points: np.ndarray) -> None:
        """The dots and axpys of one CG iteration over ``points``:
        ``alpha = (r.r)/(p.q)``, ``x += alpha p``, ``r -= alpha q``,
        ``p = r + beta p``.  Per point: read p and q (dot p.q), read and
        write x (x += alpha p), read and write r (r -= alpha q, with the
        dot r.r folded into the same sweep), write p."""
        p, q, x, r = (
            region.elements(points)
            for region in (self.p_vec, self.q_vec, self.x_vec, self.r_vec)
        )
        kinds = np.array([READ, READ, READ, WRITE, READ, WRITE, WRITE], dtype=np.uint8)
        tb.extend_arrays(
            np.stack([p, q, x, x, r, r, p], axis=1).reshape(-1),
            np.tile(kinds, points.shape[0]),
        )
        self.flops += points.shape[0] * 10

    @traced("apps.cg.trace_for_processor")
    def trace_for_processor(
        self, pid: int, iterations: int = 2, tile: Optional[int] = None
    ) -> Trace:
        """Trace ``iterations`` full CG iterations for one processor.

        The matrix-vector multiply sweeps the subgrid in row-major
        order, or with ``tile`` in column strips (below); then the
        vector ops sweep it in row-major order.

        Args:
            pid: Processor id.
            iterations: CG iterations to trace.
            tile: When given (2-D only), block the matrix-vector sweep
                into ``tile``-wide column strips.  Section 4.2: "the
                size of lev1WS can actually be kept constant through
                the use of blocking techniques" — the stencil's
                row-to-row reuse distance becomes ~3 tile-rows of sweep
                state instead of 3 full subrows, independent of
                n/sqrt(P).

        Use the profiler's ``warmup`` to exclude the first iteration's
        cold misses, per the paper's methodology.
        """
        if tile is not None:
            if self.dims != 2:
                raise ValueError("blocked sweep implemented for 2-D grids only")
            if tile < 1:
                raise ValueError("tile must be >= 1")
        self.flops = 0.0
        tb = trace_builder()
        points = self._local_points(pid)
        sweep = points if tile is None else self._local_points(pid, tile)
        for _ in range(iterations):
            self._trace_matvec(tb, sweep)
            self._trace_vector_ops(tb, points)
        return tb.build()

    @property
    def dataset_bytes(self) -> int:
        per_point = (4 + self.stencil) * DOUBLE_WORD  # p,q,x,r + coefficients
        return self.n**self.dims * per_point

    @property
    def local_bytes(self) -> int:
        return self.dataset_bytes // self.num_processors

    def self_check(self) -> "ValidationReport":
        """Mathematical self-check of the traced algorithm: solve a
        Laplacian system of this generator's grid size with CG and
        verify convergence.

        Returns the passing
        :class:`~repro.validate.report.ValidationReport`; raises
        :class:`~repro.runtime.errors.SelfCheckError` on failure.
        """
        from repro.validate.selfchecks import assert_self_check

        return assert_self_check("cg", seed=self.seed, n=self.n)
