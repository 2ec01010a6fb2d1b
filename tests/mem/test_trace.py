"""Tests for trace records, builders and interleaving."""

import numpy as np
import pytest

from repro.mem.trace import (
    Access,
    READ,
    Trace,
    TraceBuilder,
    WRITE,
)
from tests.harness.builder import ReferenceBuilder
from tests.harness.loops import iter_interleave_round_robin


class TestAccess:
    def test_read_flags(self):
        access = Access(addr=8, kind=READ)
        assert access.is_read and not access.is_write

    def test_write_flags(self):
        access = Access(addr=8, kind=WRITE)
        assert access.is_write and not access.is_read

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Access(0).addr = 1  # type: ignore[misc]


class TestBuilder:
    def test_read_write(self):
        builder = ReferenceBuilder()
        builder.read(0)
        builder.write(8)
        trace = builder.build()
        assert len(trace) == 2
        assert trace[0] == Access(0, READ)
        assert trace[1] == Access(8, WRITE)

    def test_read_range(self):
        builder = ReferenceBuilder()
        builder.read_range(100, 3)
        trace = builder.build()
        assert list(trace.addrs) == [100, 108, 116]

    def test_write_range_custom_stride(self):
        builder = ReferenceBuilder()
        builder.write_range(0, 3, stride=16)
        trace = builder.build()
        assert list(trace.addrs) == [0, 16, 32]
        assert trace.write_count == 3

    def test_extend(self):
        builder = ReferenceBuilder()
        builder.extend([Access(0), Access(8, WRITE)])
        assert len(builder) == 2

    def test_len(self):
        builder = ReferenceBuilder()
        builder.read(0)
        assert len(builder) == 1

    def test_extend_arrays_keeps_order_with_single_references(self):
        builder = ReferenceBuilder()
        builder.read(0)
        builder.extend_arrays(np.array([8, 16]), np.array([WRITE, READ]))
        builder.write(24)
        builder.extend_arrays(np.array([32]), np.array([READ]))
        assert len(builder) == 5
        trace = builder.build()
        assert trace.addrs.dtype == np.int64
        assert trace.kinds.dtype == np.uint8
        assert trace.addrs.tolist() == [0, 8, 16, 24, 32]
        assert trace.kinds.tolist() == [READ, WRITE, READ, WRITE, READ]

    def test_extend_arrays_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            TraceBuilder().extend_arrays(np.array([0, 8]), np.array([READ]))

    def test_empty_build(self):
        trace = TraceBuilder().build()
        assert len(trace) == 0
        assert trace.addrs.dtype == np.int64

    def test_columns_only(self):
        builder = TraceBuilder()
        builder.extend_arrays(np.array([0, 8]), np.array([READ, WRITE]))
        builder.extend_arrays(np.array([16]), np.array([READ]))
        assert len(builder) == 3
        assert builder.build().addrs.tolist() == [0, 8, 16]
        for name in ("read", "write", "read_range", "write_range", "extend"):
            assert not hasattr(builder, name)


class TestTrace:
    def test_from_accesses_roundtrip(self):
        accesses = [Access(0), Access(8, WRITE), Access(0)]
        trace = Trace.from_accesses(accesses)
        assert list(trace) == accesses

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.uint8))

    def test_block_ids(self):
        trace = Trace.from_addresses([0, 7, 8, 64])
        assert list(trace.block_ids(8)) == [0, 0, 1, 8]

    def test_block_ids_rejects_bad_block_size(self):
        trace = Trace.from_addresses([0])
        with pytest.raises(ValueError):
            trace.block_ids(6)

    def test_reads_writes_split(self):
        trace = Trace.from_accesses([Access(0), Access(8, WRITE), Access(16)])
        assert trace.reads().read_count == 2
        assert trace.writes().write_count == 1
        assert len(trace.reads()) + len(trace.writes()) == len(trace)

    def test_footprint(self):
        trace = Trace.from_addresses([0, 4, 8, 8, 800])
        assert trace.footprint(8) == 3
        assert trace.footprint_bytes(8) == 24

    def test_concat(self):
        a = Trace.from_addresses([0, 8])
        b = Trace.from_addresses([16])
        merged = a.concat(b)
        assert list(merged.addrs) == [0, 8, 16]

    def test_empty_from_addresses(self):
        trace = Trace.from_addresses([])
        assert len(trace) == 0
        assert trace.footprint() == 0


class TestInterleave:
    def test_round_robin_order(self):
        a = Trace.from_addresses([0, 8])
        b = Trace.from_addresses([100])
        merged = list(iter_interleave_round_robin([a, b]))
        assert [(pid, acc.addr) for pid, acc in merged] == [
            (0, 0),
            (1, 100),
            (0, 8),
        ]

    def test_total_length_preserved(self):
        traces = [Trace.from_addresses(range(0, n * 8, 8)) for n in (3, 1, 5)]
        merged = list(iter_interleave_round_robin(traces))
        assert len(merged) == 9

    def test_empty_traces(self):
        assert list(iter_interleave_round_robin([Trace.from_addresses([])])) == []

    def test_lazy_iterator_matches_wrapper(self):
        traces = [Trace.from_addresses(range(0, n * 8, 8)) for n in (4, 2, 7)]
        lazy = list(iter_interleave_round_robin(traces))
        rounds = [
            (pid, trace[i])
            for i in range(7)
            for pid, trace in enumerate(traces)
            if i < len(trace)
        ]
        assert lazy == rounds

    def test_lazy_iterator_is_lazy(self):
        """The generator pulls references on demand, never whole traces."""
        from itertools import islice

        pulled = []

        class CountingTrace:
            def __init__(self, addresses):
                self._trace = Trace.from_addresses(addresses)

            def __iter__(self):
                for access in self._trace:
                    pulled.append(access.addr)
                    yield access

        merged = iter_interleave_round_robin(
            [CountingTrace(range(0, 8000, 8)), CountingTrace([100])]
        )
        head = list(islice(merged, 4))
        assert len(head) == 4
        assert len(pulled) <= 5  # not the 1001 total references
