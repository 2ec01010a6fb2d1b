"""Tests for set-associative and direct-mapped caches.

Tiny traces go through ``run`` (the ``setassoc`` kernel), and every
cache's counters and state are held to the per-reference loop of
``tests.harness.loops`` started from the same snapshot.
"""

import numpy as np
import pytest

from repro.mem.cache import FullyAssociativeCache
from repro.mem.setassoc import SetAssociativeCache
from repro.mem.trace import Trace
from tests.conftest import random_trace
from tests.harness.builder import ReferenceBuilder
from tests.harness.loops import setassoc_loop


def _run(cache, blocks):
    """Read ``blocks`` (8-byte block ids) through ``cache``; its state
    and counters must equal the loop's.  Returns the chunk's misses."""
    trace = Trace(
        np.asarray(blocks, dtype=np.int64) * 8, np.zeros(len(blocks), dtype=np.uint8)
    )
    (expected,) = setassoc_loop([cache.state_dict()], trace.block_ids(8), trace.kinds)
    misses = cache.stats.misses
    cache.run(trace)
    assert cache.state_dict() == expected
    return cache.stats.misses - misses


class TestConstruction:
    def test_direct_mapped_flag(self):
        cache = SetAssociativeCache(64, block_size=8, associativity=1)
        assert cache.is_direct_mapped
        assert cache.num_sets == 8

    def test_rejects_non_dividing_associativity(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(64, block_size=8, associativity=3)

    def test_rejects_zero_associativity(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(64, block_size=8, associativity=0)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(64, block_size=9)

    def test_rejects_empty_cache(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(4, block_size=8)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="must be positive"):
            SetAssociativeCache(0)
        with pytest.raises(ValueError, match="must be positive"):
            SetAssociativeCache(-64)

    def test_non_dividing_associativity_message_names_values(self):
        with pytest.raises(ValueError, match="3 does not divide 8"):
            SetAssociativeCache(64, block_size=8, associativity=3)


class TestConflicts:
    def test_direct_mapped_conflict(self):
        """Two blocks mapping to the same set thrash a direct-mapped
        cache even though it has free space elsewhere."""
        cache = SetAssociativeCache(64, block_size=8, associativity=1)
        # Blocks 0 and 8 both map to set 0 of 8 sets.
        assert _run(cache, [0, 8] * 4) == 8  # every access misses

    def test_two_way_absorbs_that_conflict(self):
        cache = SetAssociativeCache(64, block_size=8, associativity=2)
        # Blocks 0 and 4 share a set in a 4-set cache.
        assert _run(cache, [0, 4] * 4) == 2  # cold only

    def test_full_associativity_equals_fa_cache(self):
        trace = random_trace(3000, 50, seed=11)
        num_blocks = 16
        setassoc = SetAssociativeCache(
            num_blocks * 8, block_size=8, associativity=num_blocks
        )
        fa = FullyAssociativeCache(num_blocks * 8, block_size=8)
        setassoc.run(trace)
        fa.run(trace)
        assert setassoc.stats.misses == fa.stats.misses
        assert setassoc.stats.read_misses == fa.stats.read_misses

    def test_direct_mapped_never_beats_full_on_uniform(self):
        trace = random_trace(5000, 64, seed=5)
        dm = SetAssociativeCache(32 * 8, block_size=8, associativity=1)
        fa = FullyAssociativeCache(32 * 8, block_size=8)
        dm.run(trace)
        fa.run(trace)
        # On uniform random traffic LRU's recency is optimal on average.
        assert dm.stats.misses >= fa.stats.misses * 0.95

    def test_cold_miss_classification(self):
        cache = SetAssociativeCache(64, block_size=8, associativity=1)
        # Block 8 conflicts with block 0; the second 0 is a conflict
        # miss, not a cold one.
        assert _run(cache, [0, 8, 0]) == 3
        assert cache.stats.cold_misses == 2


class TestLifecycle:
    def test_reset_stats(self):
        cache = SetAssociativeCache(64, block_size=8)
        _run(cache, [0])
        cache.reset_stats()
        assert cache.stats.accesses == 0
        assert _run(cache, [0]) == 0  # the contents stay: a hit

    def test_run_returns_stats(self):
        builder = ReferenceBuilder()
        builder.read_range(0, 16)
        stats = SetAssociativeCache(256, block_size=8).run(builder.build())
        assert stats.reads == 16


class TestSnapshots:
    """``load_state_dict`` accepts only states this cache could reach."""

    @staticmethod
    def _state(orders, counts):
        cache = SetAssociativeCache(64, block_size=8, associativity=2)
        state = cache.state_dict()
        state["set_orders_mru_to_lru"] = orders
        state["set_counts"] = counts
        return state

    def test_round_trip_through_the_loop(self):
        cache = SetAssociativeCache(64, block_size=8, associativity=2)
        cache.run(random_trace(500, 40, seed=4))
        twin = SetAssociativeCache(64, block_size=8, associativity=2)
        twin.load_state_dict(cache.state_dict())
        assert twin.state_dict() == cache.state_dict()
        trace = random_trace(300, 40, seed=5)
        assert twin.run(trace).__dict__ == cache.run(trace).__dict__
        assert twin.state_dict() == cache.state_dict()

    def test_valid_state_loads(self):
        cache = SetAssociativeCache(64, block_size=8, associativity=2)
        cache.load_state_dict(self._state([4, 0, 5], [2, 1, 0, 0]))
        assert cache.state_dict()["set_orders_mru_to_lru"] == [4, 0, 5]

    @pytest.mark.parametrize(
        "orders, counts",
        [
            ([1, 2, 3], [3, 0, 0, 0]),  # over-full set
            ([1], [1, 0, 0, 0]),  # block 1 maps to set 1, not set 0
            ([4, 4], [2, 0, 0, 0]),  # the same block twice
        ],
        ids=["over-associativity", "wrong-set", "duplicate"],
    )
    def test_impossible_states_rejected(self, orders, counts):
        cache = SetAssociativeCache(64, block_size=8, associativity=2)
        with pytest.raises(ValueError):
            cache.load_state_dict(self._state(orders, counts))

    @pytest.mark.parametrize(
        "orders, counts, message",
        [
            ([4, 2, 6, 1, 5, 9], [1, 0, 2, 3], "set 3 holds 3 blocks"),
            ([4, 1, 1, 6, 6], [1, 0, 2, 2], "set 2 holds a block that maps"),
            ([4, 6, 6, 3, 5], [1, 0, 2, 2], "set 2 holds a block twice"),
            ([4, 0, 0], [3, 0, 0, 0], "set 0 holds 3 blocks"),
        ],
    )
    def test_the_first_bad_set_is_named(self, orders, counts, message):
        """Sets are checked in order, and within a set: size, then
        mapping, then duplicates."""
        cache = SetAssociativeCache(64, block_size=8, associativity=2)
        with pytest.raises(ValueError, match=message):
            cache.load_state_dict(self._state(orders, counts))
