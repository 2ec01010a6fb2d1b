"""Tests for the stride prefetcher and coverage measurement."""

import numpy as np
import pytest

from repro.mem.prefetch import (
    PrefetchStats,
    StridePrefetcher,
    measure_prefetch_coverage,
)
from repro.mem.trace import Trace
from tests.conftest import random_trace
from tests.harness.builder import ReferenceBuilder


class TestStridePrefetcher:
    def test_unit_stride_detected(self):
        prefetcher = StridePrefetcher(degree=2)
        for block in range(3):
            prefetcher.observe(block)
        assert prefetcher.was_predicted(3)
        assert prefetcher.was_predicted(4)
        assert not prefetcher.was_predicted(5)

    def test_prediction_consumed(self):
        prefetcher = StridePrefetcher(degree=1)
        for block in range(3):
            prefetcher.observe(block)
        assert prefetcher.was_predicted(3)
        assert not prefetcher.was_predicted(3)

    def test_negative_stride(self):
        prefetcher = StridePrefetcher(degree=1, region_bits=20)
        for block in (30, 20, 10):
            prefetcher.observe(block)
        assert prefetcher.was_predicted(0)

    def test_zero_stride_does_not_untrain(self):
        prefetcher = StridePrefetcher(degree=1, region_bits=20)
        for block in (0, 1, 1, 1, 2):
            prefetcher.observe(block)
        assert prefetcher.was_predicted(3)

    def test_irregular_pattern_no_predictions(self):
        prefetcher = StridePrefetcher(degree=2, region_bits=20)
        for block in (0, 7, 3, 11, 2, 19):
            prefetcher.observe(block)
        assert not any(prefetcher.was_predicted(b) for b in range(32))

    def test_table_capacity_bounded(self):
        prefetcher = StridePrefetcher(degree=1, table_capacity=4)
        for block in range(100):
            prefetcher.observe(block)
        assert len(prefetcher._predicted) <= 4

    def test_regions_isolate_streams(self):
        """Two interleaved streams in different regions both train."""
        prefetcher = StridePrefetcher(degree=1, region_bits=9)
        stream_a = [0, 1, 2, 3]
        stream_b = [1000, 1001, 1002, 1003]
        for a, b in zip(stream_a, stream_b):
            prefetcher.observe(a)
            prefetcher.observe(b)
        assert prefetcher.was_predicted(4)
        assert prefetcher.was_predicted(1004)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            StridePrefetcher(degree=0)


class TestCoverage:
    def test_streaming_trace_fully_covered(self):
        trace = Trace.from_addresses(range(0, 4096 * 8, 8))
        stats = measure_prefetch_coverage(trace, 1024)
        assert stats.coverage > 0.95

    def test_random_trace_mostly_uncovered(self):
        trace = random_trace(5000, 50_000, seed=3)
        stats = measure_prefetch_coverage(trace, 1024)
        # Dense random traffic triggers occasional accidental strides;
        # coverage must stay far below the streaming case.
        assert stats.coverage < 0.15

    def test_no_misses_no_coverage_div_by_zero(self):
        builder = ReferenceBuilder()
        builder.read(0)
        stats = measure_prefetch_coverage(builder.build(), 8 * 1024, block_size=8)
        assert stats.coverage == 0.0 or stats.misses <= 1

    def test_reads_only_flag(self):
        builder = ReferenceBuilder()
        builder.write_range(0, 100)
        trace = builder.build()
        reads_only = measure_prefetch_coverage(trace, 64, reads_only=True)
        both = measure_prefetch_coverage(trace, 64, reads_only=False)
        assert reads_only.misses == 0
        assert both.misses > 0

    def test_stats_properties(self):
        stats = PrefetchStats(misses=10, covered=4)
        assert stats.coverage == pytest.approx(0.4)
