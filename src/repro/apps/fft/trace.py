"""Memory-reference trace generator for the parallel blocked FFT.

Emits one processor's double-word reference stream through the radix-D
parallel FFT of Section 5.1: each radix-D stage sweeps the local D
points in internal-radix-r passes; between radix-D stages all local
points are exchanged with other processors.

A radix-r butterfly reads its r complex points (2r double words), the
r-1 complex twiddle factors for the group (2(r-1) double words, stored
in access order as high-radix kernels lay them out for streaming — van
Loan 1992), and writes the r results back.  The level-1 working set is
therefore one butterfly's points-plus-twiddles, and the measured
plateau reproduces the paper's ~0.6 / ~0.25 / ~0.15 read misses per
operation for internal radices 2 / 8 / 32 (Figure 5).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.apps.fft.transform import stage_structure
from repro.mem.address import AddressSpace
from repro.mem.trace import READ, WRITE, Trace, TraceBuilder
from repro.mem.shards import trace_builder
from repro.obs.tracing import traced
from repro.units import DOUBLE_WORD

if TYPE_CHECKING:
    from repro.validate.report import ValidationReport


class FFTTraceGenerator:
    """Trace generator for the parallel 1-D complex FFT.

    Args:
        n: Transform length N (power of two).
        num_processors: P (power of two dividing N).
        internal_radix: The cache-blocking radix r (power of two >= 2).
        seed: Determinism-audit seed, recorded for provenance.  The
            butterfly reference pattern depends only on (N, P, r), so
            equal-seed runs are byte-identical by construction; the
            seed also parameterizes :meth:`self_check`'s random input
            vector.
    """

    def __init__(
        self,
        n: int,
        num_processors: int,
        internal_radix: int = 8,
        seed: int = 0,
    ) -> None:
        self.seed = seed
        for value, label in ((n, "n"), (num_processors, "num_processors"), (internal_radix, "internal_radix")):
            if value < 1 or (value & (value - 1)) != 0:
                raise ValueError(f"{label} must be a power of two")
        if internal_radix < 2:
            raise ValueError("internal_radix must be at least 2")
        if n % num_processors != 0 or n // num_processors < internal_radix:
            raise ValueError("each processor needs at least one radix group")
        self.n = n
        self.num_processors = num_processors
        self.radix = internal_radix
        self.points_local = n // num_processors
        self.space = AddressSpace()
        # Complex data: 2 double words per point; double-buffered for the
        # inter-stage exchange.
        self.data = self.space.allocate_array("points", 2 * n)
        self.exchange = self.space.allocate_array("exchange buffer", 2 * n)
        # Twiddle table: D complex entries per processor, laid out in
        # access order and reused across passes (van Loan 1992).  Within
        # one pass every butterfly reads fresh entries (no reuse); across
        # passes the table is swept again from the start.
        twiddle_count = 2 * self.points_local
        self.twiddles = self.space.allocate_array("twiddles", twiddle_count)
        self.flops = 0.0

    def _trace_local_pass(
        self, tb: TraceBuilder, base: int, radix: int, stride: int
    ) -> None:
        """One internal-radix-``radix`` pass over the local points.

        ``stride`` is the butterfly distance of the pass within the
        local data.  Each butterfly is emitted output-by-output: every
        output value combines all r inputs, so each output re-reads the
        r input points (2 double words each) and, after the first, the
        next complex twiddle (2 double words); then the r results are
        written back.  With a cache of at least one butterfly (the
        lev1WS) the re-reads hit; below it the miss rate blows up toward
        ``2r`` double words per point — the left side of the Figure 5
        knees.  The twiddle table is re-swept from its start every pass,
        butterfly ``b`` reading entries ``b*2(r-1) + t`` (mod the table).

        The pass is one ``(butterflies x references-per-butterfly)``
        broadcast.
        """
        d = self.points_local
        butterflies = d // radix
        b = np.arange(butterflies, dtype=np.int64)
        # Butterfly b: group b // stride, offset b % stride; its points
        # are ``first + k * stride``.
        first = base + (b // stride) * (radix * stride) + b % stride
        points = first[:, None] + np.arange(radix) * stride
        words = (2 * points[:, :, None] + np.arange(2)).reshape(butterflies, -1)
        per_twiddles = 2 * (radix - 1)
        limit = self.twiddles.size // DOUBLE_WORD
        twiddles = (b[:, None] * per_twiddles + np.arange(per_twiddles)) % limit
        columns = np.hstack(
            [self.data.elements(words), self.twiddles.elements(twiddles)]
        )
        # Column template of one butterfly: the 2r point words, then per
        # further output the point words and two twiddle words, then the
        # point words again (written).
        point_cols = np.arange(2 * radix)
        template = [point_cols]
        for output in range(1, radix):
            template += [point_cols, 2 * radix + 2 * (output - 1) + np.arange(2)]
        template.append(point_cols)
        template = np.concatenate(template)
        kinds = np.full(template.shape, READ, dtype=np.uint8)
        kinds[-2 * radix :] = WRITE
        tb.extend_arrays(
            columns[:, template].reshape(-1), np.tile(kinds, butterflies)
        )
        # 5 flops per point per radix-2 level; a radix-r butterfly
        # performs log2(r) levels on r points.
        self.flops += butterflies * (5.0 * radix * math.log2(radix))

    def _trace_exchange(self, tb: TraceBuilder, base: int) -> None:
        """The all-to-all: read every local point, write it to the
        (strided) exchange buffer where its next-stage owner expects it
        (the transpose-style redistribution)."""
        d = self.points_local
        p = self.num_processors
        local = np.arange(d, dtype=np.int64)
        dest = ((local % p) * d + local // p) % self.n
        words = np.arange(2)
        columns = np.hstack(
            [
                self.data.elements(2 * (base + local)[:, None] + words),
                self.exchange.elements(2 * dest[:, None] + words),
            ]
        )
        kinds = np.array([READ, READ, WRITE, WRITE], dtype=np.uint8)
        tb.extend_arrays(columns.reshape(-1), np.tile(kinds, d))

    @traced("apps.fft.trace_for_processor")
    def trace_for_processor(self, pid: int = 0) -> Trace:
        """Trace one processor through all radix-D stages of the FFT."""
        self.flops = 0.0
        tb = trace_builder()
        base = pid * self.points_local
        num_stages, stages = stage_structure(self.n, self.points_local)
        levels_per_pass = int(math.log2(self.radix))
        for stage_index, levels in enumerate(stages):
            # Internal passes covering `levels` butterfly levels; the
            # last may be a remainder pass with a smaller radix.
            done = 0
            stride = 1
            while done < levels:
                step = min(levels_per_pass, levels - done)
                radix = 2**step
                self._trace_local_pass(tb, base, radix, stride)
                stride *= radix
                done += step
            if stage_index != num_stages - 1:
                self._trace_exchange(tb, base)
        return tb.build()

    @property
    def dataset_bytes(self) -> int:
        """The complex input vector: 16 bytes per point."""
        return 2 * self.n * DOUBLE_WORD

    def total_flops(self) -> float:
        """``5 N log2 N`` for the whole machine."""
        return 5.0 * self.n * math.log2(self.n)

    def self_check(self) -> "ValidationReport":
        """Mathematical self-check of the traced algorithm: transform a
        random vector of this generator's length and verify the inverse
        round-trip plus agreement with ``numpy.fft``.

        Returns the passing
        :class:`~repro.validate.report.ValidationReport`; raises
        :class:`~repro.runtime.errors.SelfCheckError` on failure.
        """
        from repro.validate.selfchecks import assert_self_check

        return assert_self_check("fft", seed=self.seed, n=self.n)
