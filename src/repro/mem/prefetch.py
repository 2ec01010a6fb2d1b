"""Prefetchability analysis.

The paper repeatedly qualifies miss rates by predictability: LU's
misses "are predictable enough to be easily prefetched" (Section 3.2),
the FFT's "can be easily prefetched" (Section 5.2), while Barnes-Hut's
"are not predictable enough to be easily prefetched" (Section 6.2) and
volume rendering's "access patterns are not regular enough to be easily
prefetched" (Section 7.2).

This module quantifies that claim: a stride prefetcher model measures
what fraction of an application's cache misses a simple
sequential/stride predictor would have covered.  Regular kernels (LU,
CG, FFT) should score high; pointer-chasing ones (Barnes-Hut) and
data-dependent ones (volume rendering) low.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.mem.cache import FullyAssociativeCache
from repro.mem.trace import READ, Trace


@dataclass
class PrefetchStats:
    """Outcome of a prefetch-coverage run.

    Attributes:
        misses: Demand misses of the baseline cache.
        covered: Misses whose block had been predicted by the stride
            table before the demand access arrived.
    """

    misses: int = 0
    covered: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of misses a stride prefetcher would have hidden."""
        return self.covered / self.misses if self.misses else 0.0


class StridePrefetcher:
    """A PC-less, region-based stride predictor.

    State: for each address region (high-order bits), the last accessed
    block and the last observed stride.  When two consecutive accesses
    to a region repeat the same stride, the next ``degree`` blocks along
    that stride are predicted.

    This deliberately models early-1990s sequential/stride hardware
    prefetching (the technology the paper had in mind), not modern
    correlation prefetchers.
    """

    def __init__(
        self,
        block_size: int = 8,
        region_bits: int = 16,
        degree: int = 2,
        table_capacity: int = 4096,
    ) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.block_size = block_size
        self.region_bits = region_bits
        self.degree = degree
        self.table_capacity = table_capacity
        self._last_block: Dict[int, int] = {}
        self._last_stride: Dict[int, int] = {}
        self._predicted: Dict[int, None] = {}  # ordered set of blocks

    def _region_of(self, block: int) -> int:
        return (block * self.block_size) >> self.region_bits

    def observe(self, block: int) -> None:
        """Train on one accessed block and emit predictions."""
        region = self._region_of(block)
        last = self._last_block.get(region)
        if last is not None:
            stride = block - last
            if stride == 0:
                # Re-access of the same line carries no direction
                # information; do not clobber the trained stride.
                return
            if stride == self._last_stride.get(region):
                for i in range(1, self.degree + 1):
                    self._remember(block + i * stride)
            self._last_stride[region] = stride
        self._last_block[region] = block

    def _remember(self, block: int) -> None:
        if block in self._predicted:
            return
        self._predicted[block] = None
        while len(self._predicted) > self.table_capacity:
            oldest = next(iter(self._predicted))
            del self._predicted[oldest]

    def was_predicted(self, block: int) -> bool:
        """True if the block is currently covered by a prediction (the
        prediction is consumed)."""
        if block in self._predicted:
            del self._predicted[block]
            return True
        return False


def measure_prefetch_coverage(
    trace: Trace,
    cache_bytes: int,
    block_size: int = 32,
    degree: int = 4,
    region_bits: int = 9,
    reads_only: bool = True,
) -> PrefetchStats:
    """Fraction of demand misses covered by a stride prefetcher.

    Args:
        trace: The reference stream.
        cache_bytes: Baseline cache capacity (choose the post-lev1
            plateau region so the remaining misses are the interesting
            ones).
        block_size: Line size.  The default 32 bytes absorbs
            intra-record spatial locality (e.g. reading one octree
            cell's fields) so coverage reflects *inter*-record
            predictability, which is what the paper's claims are about.
        degree: Prefetch depth.
        region_bits: log2 of the stride-table region size; small
            regions separate interleaved streams, standing in for the
            PC indexing of hardware stride prefetchers.
        reads_only: Count only read misses (the paper's focus).

    Returns:
        :class:`PrefetchStats` with miss coverage.
    """
    hits = FullyAssociativeCache(cache_bytes, block_size).hit_mask(trace)
    prefetcher = StridePrefetcher(
        block_size=block_size, region_bits=region_bits, degree=degree
    )
    stats = PrefetchStats()
    for block, kind, hit in zip(
        trace.block_ids(block_size).tolist(), trace.kinds.tolist(), hits.tolist()
    ):
        if not hit and (kind == READ or not reads_only):
            stats.misses += 1
            if prefetcher.was_predicted(block):
                stats.covered += 1
        prefetcher.observe(block)
    return stats
