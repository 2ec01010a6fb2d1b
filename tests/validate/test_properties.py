"""Property-based tests backing the differential harness.

The equivalence tests compare the Mattson profiler against the
``OrderedDict`` oracle of :mod:`tests.harness.lru_oracle`;
:class:`~repro.mem.cache.FullyAssociativeCache` reads its hits off the
profiler's own depth engine, so a bug there could cancel out between
the two.  The reference model here is an intentionally naive
plain-Python list: O(n) per access, shares nothing with the instruments
under test.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import FullyAssociativeCache
from repro.mem.stack_distance import profile_trace
from repro.mem.trace import Trace


def naive_lru_misses(blocks, capacity_blocks):
    """Fully associative LRU via a plain list; front = MRU."""
    stack = []
    misses = 0
    for block in blocks:
        if block in stack:
            stack.remove(block)
        else:
            misses += 1
            if capacity_blocks > 0 and len(stack) >= capacity_blocks:
                stack.pop()
        if capacity_blocks > 0:
            stack.insert(0, block)
    return misses


addresses = st.lists(st.integers(min_value=0, max_value=40 * 8), max_size=120)
capacities = st.integers(min_value=0, max_value=48)


class TestProfilerAgainstNaiveModel:
    @settings(max_examples=60, deadline=None)
    @given(addrs=addresses, capacity=capacities)
    def test_profiler_matches_naive_lru(self, addrs, capacity):
        trace = Trace.from_addresses(addrs)
        profile = profile_trace(trace, block_size=8)
        blocks = [a // 8 for a in addrs]
        assert profile.misses_at(capacity) == naive_lru_misses(
            blocks, capacity
        )

    @settings(max_examples=60, deadline=None)
    @given(addrs=addresses, capacity=st.integers(min_value=1, max_value=48))
    def test_explicit_cache_matches_naive_lru(self, addrs, capacity):
        trace = Trace.from_addresses(addrs)
        cache = FullyAssociativeCache(capacity * 8, block_size=8)
        blocks = [a // 8 for a in addrs]
        cache.hit_mask(trace)
        assert cache.stats.misses == naive_lru_misses(blocks, capacity)

    @settings(max_examples=40, deadline=None)
    @given(addrs=addresses)
    def test_misses_monotone_in_capacity(self, addrs):
        profile = profile_trace(Trace.from_addresses(addrs), block_size=8)
        footprint = len({a // 8 for a in addrs})
        previous = None
        for capacity in range(footprint + 2):
            misses = profile.misses_at(capacity)
            assert misses >= footprint or capacity == 0 or misses >= 0
            if previous is not None:
                assert misses <= previous
            previous = misses
        assert profile.misses_at(footprint) == footprint or not addrs
