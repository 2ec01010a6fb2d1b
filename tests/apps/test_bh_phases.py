"""Tests for the Barnes-Hut build/moments phase traces and the phase
sharing experiment (Section 6.4)."""

import numpy as np
import pytest

from repro.apps.barnes_hut.bodies import plummer_model
from repro.apps.barnes_hut.octree import Octree
from repro.apps.barnes_hut.trace import BarnesHutTraceGenerator
from repro.experiments import bh_phases
from repro.mem.multiproc import MultiprocessorMemory
from repro.mem.trace import READ, WRITE
from tests.harness.builder import access


@pytest.fixture(scope="module")
def generator():
    return BarnesHutTraceGenerator(
        plummer_model(192, seed=11), theta=1.0, num_processors=4
    )


class TestInsertionPaths:
    def test_every_body_has_a_path(self, small_bodies):
        tree = Octree(small_bodies)
        assert len(tree.insertion_paths) == len(small_bodies)
        assert all(path for path in tree.insertion_paths)

    def test_paths_start_at_root(self, small_bodies):
        tree = Octree(small_bodies)
        for path in tree.insertion_paths:
            assert path[0] == tree.root.index

    def test_path_cells_are_nested(self, small_bodies):
        tree = Octree(small_bodies)
        for path in tree.insertion_paths[:20]:
            sizes = [tree.cells[i].half_size for i in path]
            # Re-insertions during splits may repeat a size; never grow.
            assert all(b <= a for a, b in zip(sizes, sizes[1:]))


class TestPhaseTraces:
    def test_build_trace_nonempty(self, generator):
        trace = generator.build_trace_for_processor(0)
        assert len(trace) > 100

    def test_build_traces_cover_all_bodies(self, generator):
        total_writes = sum(
            generator.build_trace_for_processor(pid).write_count
            for pid in range(4)
        )
        assert total_writes >= len(generator.bodies)

    def test_moments_traces_cover_all_cells(self, generator):
        """Every cell's moment fields are written exactly once across
        processors."""
        cell_writes = set()
        for pid in range(4):
            trace = generator.moments_trace_for_processor(pid)
            for addr in trace.writes().addrs.tolist():
                if generator.cell_region.contains(addr):
                    cell_writes.add(addr)
        assert len(cell_writes) == generator.tree.num_cells * 10

    def test_cell_owner_valid(self, generator):
        for cell in generator.tree.cells[:100]:
            assert 0 <= generator.cell_owner(cell) < 4

    def test_force_scratch_private(self, generator):
        """Force traces of different processors touch different scratch
        regions."""
        t0 = set(generator.trace_for_processor(0).addrs.tolist())
        t1 = set(generator.trace_for_processor(1).addrs.tolist())
        s0 = {
            a
            for a in t0
            if generator.scratch_regions[0].contains(a)
        }
        s1_in_t1 = {
            a for a in t1 if generator.scratch_regions[1].contains(a)
        }
        assert s0
        assert s1_in_t1
        assert not (s0 & t1)


class TestRemoteReads:
    def test_producer_consumer_counted(self):
        mem = MultiprocessorMemory(2)
        access(mem, 0, 0, WRITE)
        access(mem, 1, 0, READ)
        assert mem.stats[1].remote_reads == 1

    def test_own_data_not_remote(self):
        """After another processor reads your write, your own re-read
        hits and adds no remote read."""
        mem = MultiprocessorMemory(2)
        access(mem, 0, 0, WRITE)
        access(mem, 1, 0, READ)
        assert access(mem, 0, 0, READ) is True
        assert mem.stats[0].remote_reads == 0

    def test_unwritten_data_not_remote(self):
        mem = MultiprocessorMemory(2)
        access(mem, 0, 0)
        access(mem, 1, 0)
        assert mem.stats[1].remote_reads == 0


class TestPhaseExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return bh_phases.run(n=256, num_processors=4)

    def test_build_shares_much_more_than_force(self, result):
        ratio = result.comparison("build/force sharing-rate ratio").measured_value
        assert ratio > 5

    def test_moments_shares_more_than_force(self, result):
        ratio = result.comparison("moments/force sharing-rate ratio").measured_value
        assert ratio > 2

    def test_force_dominates_references(self, result):
        fraction = result.comparison(
            "force-phase fraction of references"
        ).measured_value
        assert fraction > 0.9
