"""Tests for the fully associative LRU cache simulator."""

import numpy as np
import pytest

from repro.mem.cache import FullyAssociativeCache
from repro.mem.trace import READ, WRITE, Trace
from tests.conftest import random_trace
from tests.harness.builder import ReferenceBuilder
from tests.harness.lru_oracle import OracleCache, sweep_cache_sizes


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


class _Twin:
    """A cache and an oracle fed the same chunks; :meth:`hits` returns
    the cache's hit per reference after checking it against the
    oracle's."""

    def __init__(self, capacity_bytes, block_size=8):
        self.cache = FullyAssociativeCache(capacity_bytes, block_size)
        self.oracle = OracleCache(capacity_bytes, block_size)

    def hits(self, addrs, kinds=None):
        kinds = [READ] * len(addrs) if kinds is None else kinds
        trace = Trace(
            np.asarray(addrs, dtype=np.int64), np.asarray(kinds, dtype=np.uint8)
        )
        hits = self.cache.hit_mask(trace).tolist()
        assert hits == self.oracle.hit_mask(trace).tolist()
        assert vars(self.cache.stats) == vars(self.oracle.stats)
        return hits


class TestAccess:
    def test_first_access_misses(self):
        twin = _Twin(64)
        assert twin.hits([0]) == [False]
        assert twin.cache.stats.read_misses == 1
        assert twin.cache.stats.cold_misses == 1

    def test_second_access_hits(self):
        twin = _Twin(64)
        assert twin.hits([0, 0]) == [False, True]
        assert twin.cache.stats.reads == 2
        assert twin.cache.stats.read_misses == 1

    def test_same_block_different_addr_hits(self):
        assert _Twin(64, block_size=8).hits([0, 7]) == [False, True]  # same 8-byte block

    def test_write_miss_counted_separately(self):
        twin = _Twin(64)
        twin.hits([0], [WRITE])
        assert twin.cache.stats.write_misses == 1
        assert twin.cache.stats.read_misses == 0

    def test_lru_eviction(self):
        twin = _Twin(16, block_size=8)  # two blocks
        # 16 evicts block 0; 8 and 16 stay resident.
        assert twin.hits([0, 8, 16, 8, 16, 0]) == [False] * 3 + [True, True, False]

    def test_touch_refreshes_recency(self):
        twin = _Twin(16, block_size=8)
        # Block 0 is MRU when 16 arrives, so 16 evicts block 8.
        assert twin.hits([0, 8, 0, 16, 0, 8]) == [
            False, False, True, False, True, False
        ]

    def test_capacity_miss_vs_cold(self):
        twin = _Twin(8, block_size=8)  # one block
        twin.hits([0, 8, 0])  # the re-miss is capacity, not cold
        assert twin.cache.stats.cold_misses == 2
        assert twin.cache.stats.capacity_misses == 1

    def test_resident_blocks_bounded(self):
        twin = _Twin(32, block_size=8)
        twin.hits(list(range(0, 800, 8)))
        # Exactly the last four blocks are resident: they hit (in any
        # order), the fifth-last does not.
        assert twin.hits([792, 776, 784, 768, 760]) == [True] * 4 + [False]


class TestRun:
    def test_run_matches_the_oracle(self, looping_trace):
        """On the loop (a short trace) and on the kernel (a long one)."""
        for trace in (looping_trace, random_trace(3000, 80, seed=5)):
            for capacity in (8, 64, 256, 1024):
                cache = FullyAssociativeCache(capacity)
                cache.hit_mask(trace)
                assert vars(cache.stats) == vars(OracleCache(capacity).run(trace))

    def test_full_reuse_when_fits(self, looping_trace):
        cache = FullyAssociativeCache(64 * 8)
        cache.hit_mask(looping_trace)
        stats = cache.stats
        assert stats.misses == 64  # cold only
        assert stats.cold_misses == 64

    def test_no_reuse_when_too_small(self, looping_trace):
        cache = FullyAssociativeCache(8 * 8)  # 8 of 64 blocks
        cache.hit_mask(looping_trace)
        stats = cache.stats
        assert stats.misses == 4 * 64  # every sweep misses everything

    def test_miss_rate_metric(self, sequential_trace):
        cache = FullyAssociativeCache(64)
        cache.hit_mask(sequential_trace)
        assert cache.stats.miss_rate == 1.0

    def test_reset_stats_keeps_contents(self):
        twin = _Twin(256)
        twin.hits([0])
        twin.cache.reset_stats()
        twin.oracle.reset_stats()
        assert twin.cache.stats.accesses == 0
        assert twin.hits([0]) == [True]  # still resident


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
        twin = _Twin(8, block_size=8)
        twin.hits([0, 8], [READ, WRITE])
        assert twin.cache.stats.read_miss_rate == 1.0
        assert twin.cache.stats.miss_rate == 1.0
