"""Tests for the fully associative LRU cache simulator."""

import numpy as np
import pytest

from repro.mem.cache import FullyAssociativeCache, sweep_cache_sizes
from repro.mem.trace import READ, WRITE, Trace
from tests.harness.builder import ReferenceBuilder


class TestConstruction:
    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ValueError):
            FullyAssociativeCache(1024, block_size=12)

    def test_rejects_capacity_below_block(self):
        with pytest.raises(ValueError, match="at least one block"):
            FullyAssociativeCache(4, block_size=8)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="must be positive"):
            FullyAssociativeCache(0)
        with pytest.raises(ValueError, match="must be positive"):
            FullyAssociativeCache(-1024)

    def test_rejects_zero_block_size(self):
        with pytest.raises(ValueError, match="power of two"):
            FullyAssociativeCache(1024, block_size=0)

    def test_error_messages_carry_offending_values(self):
        with pytest.raises(ValueError, match="12"):
            FullyAssociativeCache(1024, block_size=12)
        with pytest.raises(ValueError, match="-8"):
            FullyAssociativeCache(-8)

    def test_num_blocks(self):
        cache = FullyAssociativeCache(1024, block_size=8)
        assert cache.num_blocks == 128


class TestAccess:
    def test_first_access_misses(self):
        cache = FullyAssociativeCache(64)
        assert cache.access(0) is False
        assert cache.stats.read_misses == 1
        assert cache.stats.cold_misses == 1

    def test_second_access_hits(self):
        cache = FullyAssociativeCache(64)
        cache.access(0)
        assert cache.access(0) is True
        assert cache.stats.reads == 2
        assert cache.stats.read_misses == 1

    def test_same_block_different_addr_hits(self):
        cache = FullyAssociativeCache(64, block_size=8)
        cache.access(0)
        assert cache.access(7) is True  # same 8-byte block

    def test_write_miss_counted_separately(self):
        cache = FullyAssociativeCache(64)
        cache.access(0, WRITE)
        assert cache.stats.write_misses == 1
        assert cache.stats.read_misses == 0

    def test_lru_eviction(self):
        cache = FullyAssociativeCache(16, block_size=8)  # two blocks
        cache.access(0)
        cache.access(8)
        cache.access(16)  # evicts block 0
        assert not cache.contains(0)
        assert cache.contains(8)
        assert cache.contains(16)

    def test_touch_refreshes_recency(self):
        cache = FullyAssociativeCache(16, block_size=8)
        cache.access(0)
        cache.access(8)
        cache.access(0)  # block 0 now MRU
        cache.access(16)  # evicts block 8
        assert cache.contains(0)
        assert not cache.contains(8)

    def test_capacity_miss_vs_cold(self):
        cache = FullyAssociativeCache(8, block_size=8)  # one block
        cache.access(0)
        cache.access(8)
        cache.access(0)  # re-miss: capacity, not cold
        assert cache.stats.cold_misses == 2
        assert cache.stats.capacity_misses == 1

    def test_resident_blocks_bounded(self):
        cache = FullyAssociativeCache(32, block_size=8)
        for addr in range(0, 800, 8):
            cache.access(addr)
        assert cache.resident_blocks() <= 4


class TestRun:
    def test_run_matches_access_loop(self, looping_trace):
        by_run = FullyAssociativeCache(256)
        by_loop = FullyAssociativeCache(256)
        by_run.run(looping_trace)
        for access in looping_trace:
            by_loop.access(access.addr, access.kind)
        assert by_run.stats == by_loop.stats

    def test_full_reuse_when_fits(self, looping_trace):
        cache = FullyAssociativeCache(64 * 8)
        stats = cache.run(looping_trace)
        assert stats.misses == 64  # cold only
        assert stats.cold_misses == 64

    def test_no_reuse_when_too_small(self, looping_trace):
        cache = FullyAssociativeCache(8 * 8)  # 8 of 64 blocks
        stats = cache.run(looping_trace)
        assert stats.misses == 4 * 64  # every sweep misses everything

    def test_miss_rate_metric(self, sequential_trace):
        cache = FullyAssociativeCache(64)
        stats = cache.run(sequential_trace)
        assert stats.miss_rate == 1.0

    def test_reset_stats_keeps_contents(self):
        cache = FullyAssociativeCache(256)
        cache.access(0)
        cache.reset_stats()
        assert cache.stats.accesses == 0
        assert cache.access(0) is True  # still resident

    def test_flush_empties(self):
        cache = FullyAssociativeCache(256)
        cache.access(0)
        cache.flush()
        assert cache.access(0) is False
        assert cache.stats.cold_misses == 2  # cold history also reset


class TestSweep:
    def test_monotone_in_capacity(self):
        builder = ReferenceBuilder()
        for sweep in range(3):
            builder.read_range(0, 100)
        trace = builder.build()
        capacities = np.array([16, 64, 256, 1024])
        rates = sweep_cache_sizes(trace, capacities)
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_warmup_excludes_cold(self, looping_trace):
        capacities = np.array([64 * 8])
        rates = sweep_cache_sizes(looping_trace, capacities, warmup=64)
        assert rates[0] == 0.0

    def test_read_miss_rate_property(self):
        cache = FullyAssociativeCache(8, block_size=8)
        cache.access(0, READ)
        cache.access(8, WRITE)
        assert cache.stats.read_miss_rate == 1.0
        assert cache.stats.miss_rate == 1.0
