"""Tests for the CG kernel, grids, trace generator and model."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from repro.apps.cg.grid import Grid2D, Grid3D, GridPartition
from repro.apps.cg.model import CGModel
from repro.apps.cg.solver import (
    conjugate_gradient,
    flops_per_iteration_2d,
    flops_per_iteration_3d,
)
from repro.apps.cg.trace import CGTraceGenerator
from repro.core.grain import GrainConfig
from repro.core.knee import match_knee
from repro.core.curves import MissRateCurve
from repro.mem.multiproc import MultiprocessorMemory
from repro.mem.stack_distance import default_capacity_grid, profile_trace
from repro.units import GB, KB


def dense_laplacian_2d(n):
    grid = Grid2D(n)
    size = grid.num_points
    a = np.zeros((size, size))
    for i in range(n):
        for j in range(n):
            idx = grid.index(i, j)
            a[idx, idx] = 4.0
            for (ni, nj) in grid.neighbors(i, j):
                a[idx, grid.index(ni, nj)] = -1.0
    return a


class TestGrids:
    def test_matvec_matches_dense(self):
        n = 8
        grid = Grid2D(n)
        a = dense_laplacian_2d(n)
        x = np.random.default_rng(0).standard_normal(n * n)
        np.testing.assert_allclose(grid.laplacian_matvec(x), a @ x, atol=1e-12)

    def test_matvec_3d_symmetry(self):
        grid = Grid3D(5)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(grid.num_points)
        y = rng.standard_normal(grid.num_points)
        # <Ax, y> == <x, Ay> for symmetric A.
        assert np.dot(grid.laplacian_matvec(x), y) == pytest.approx(
            np.dot(x, grid.laplacian_matvec(y))
        )

    def test_matvec_positive_definite(self):
        grid = Grid2D(6)
        x = np.random.default_rng(2).standard_normal(grid.num_points)
        assert np.dot(x, grid.laplacian_matvec(x)) > 0

    def test_neighbors_clipped_at_boundary(self):
        grid = Grid2D(4)
        assert len(list(grid.neighbors(0, 0))) == 2
        assert len(list(grid.neighbors(1, 1))) == 4

    def test_index_row_major(self):
        assert Grid2D(10).index(2, 3) == 23
        assert Grid3D(10).index(1, 2, 3) == 123


class TestPartition:
    def test_requires_square_p(self):
        with pytest.raises(ValueError):
            GridPartition(Grid2D(12), 6)

    def test_requires_divisible_side(self):
        with pytest.raises(ValueError):
            GridPartition(Grid2D(10), 16)

    def test_owner_layout(self):
        part = GridPartition(Grid2D(8), 4)
        assert part.owner(0, 0) == 0
        assert part.owner(0, 4) == 1
        assert part.owner(4, 0) == 2
        assert part.owner(7, 7) == 3

    def test_local_ranges(self):
        part = GridPartition(Grid2D(8), 4)
        assert list(part.local_rows(3)) == [4, 5, 6, 7]
        assert list(part.local_cols(3)) == [4, 5, 6, 7]

    def test_boundary_points(self):
        part = GridPartition(Grid2D(8), 4)
        assert part.boundary_points(0) == 12  # perimeter of 4x4 block


class TestSolver:
    def test_solves_laplacian(self):
        grid = Grid2D(12)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(grid.num_points)
        result = conjugate_gradient(grid.laplacian_matvec, b, tol=1e-12)
        assert result.converged
        np.testing.assert_allclose(
            grid.laplacian_matvec(result.x), b, atol=1e-8
        )

    def test_matches_scipy_cg(self):
        grid = Grid2D(10)
        b = np.random.default_rng(1).standard_normal(grid.num_points)
        ours = conjugate_gradient(grid.laplacian_matvec, b, tol=1e-12)
        op = scipy.sparse.linalg.LinearOperator(
            (grid.num_points, grid.num_points), matvec=grid.laplacian_matvec
        )
        theirs, info = scipy.sparse.linalg.cg(op, b, rtol=1e-12)
        assert info == 0
        np.testing.assert_allclose(ours.x, theirs, atol=1e-6)

    def test_3d(self):
        grid = Grid3D(6)
        b = np.random.default_rng(2).standard_normal(grid.num_points)
        result = conjugate_gradient(grid.laplacian_matvec, b, tol=1e-10)
        assert result.converged

    def test_initial_guess_respected(self):
        grid = Grid2D(8)
        b = np.random.default_rng(3).standard_normal(grid.num_points)
        exact = conjugate_gradient(grid.laplacian_matvec, b, tol=1e-12).x
        warm = conjugate_gradient(grid.laplacian_matvec, b, x0=exact, tol=1e-10)
        assert warm.iterations <= 2

    def test_zero_rhs(self):
        grid = Grid2D(4)
        result = conjugate_gradient(grid.laplacian_matvec, np.zeros(16))
        np.testing.assert_allclose(result.x, 0.0)

    def test_flop_formulas(self):
        assert flops_per_iteration_2d(100) == 100_000
        assert flops_per_iteration_3d(10) == 14_000


class TestTraceGenerator:
    def test_rejects_bad_processor_count(self):
        with pytest.raises(ValueError):
            CGTraceGenerator(n=16, num_processors=3, dims=2)

    def test_rejects_indivisible_grid(self):
        with pytest.raises(ValueError):
            CGTraceGenerator(n=10, num_processors=16, dims=2)

    def test_3d_needs_cube(self):
        with pytest.raises(ValueError):
            CGTraceGenerator(n=16, num_processors=4, dims=3)
        CGTraceGenerator(n=16, num_processors=8, dims=3)  # ok

    def test_trace_length_scales_with_iterations(self):
        gen = CGTraceGenerator(n=32, num_processors=4)
        one = gen.trace_for_processor(0, iterations=1)
        two = gen.trace_for_processor(0, iterations=2)
        assert len(two) == 2 * len(one)

    def test_local_points_disjoint_across_processors(self):
        gen = CGTraceGenerator(n=16, num_processors=4)
        seen = set()
        for pid in range(4):
            points = set(gen._local_points(pid))
            assert not points & seen
            seen |= points
        assert len(seen) == 16 * 16

    def test_lev2_knee_matches_partition_size(self):
        gen = CGTraceGenerator(n=64, num_processors=4)
        trace = gen.trace_for_processor(0, iterations=2)
        profile = profile_trace(trace, warmup=len(trace) // 2)
        model = CGModel(n=64, num_processors=4)
        curve = MissRateCurve.from_profile(
            profile,
            default_capacity_grid(min_bytes=128, max_bytes=256 * KB),
            metric="misses_per_flop",
            flops=gen.flops / 2,
        )
        knees = curve.knees(rel_threshold=0.15)
        lev2 = match_knee(knees, model.lev2_bytes(), tolerance_factor=3.0)
        assert lev2.capacity_bytes == pytest.approx(model.lev2_bytes(), rel=1.0)

    def test_miss_rate_stays_high_between_working_sets(self):
        """The paper: 'the miss rate remains high even after this
        [lev1] working set fits in the cache'."""
        gen = CGTraceGenerator(n=64, num_processors=4)
        trace = gen.trace_for_processor(0, iterations=2)
        profile = profile_trace(trace, warmup=len(trace) // 2)
        model = CGModel(n=64, num_processors=4)
        mid_cache = int(model.lev2_bytes() / 4)
        rate = profile.misses_at(mid_cache // 8) / (gen.flops / 2)
        assert rate > 0.3


class TestMultiprocessorCommunication:
    def test_boundary_exchange_generates_coherence_misses(self):
        """Run all four processors' traces through private caches: the
        invalidations should land on partition-boundary data only."""
        gen = CGTraceGenerator(n=16, num_processors=4)
        traces = [gen.trace_for_processor(pid, iterations=2) for pid in range(4)]
        mem = MultiprocessorMemory(4)
        stats = mem.run_traces(traces)
        total_coherence = sum(s.coherence_misses for s in stats)
        assert total_coherence > 0
        # Bounded by a small multiple of the perimeter points per iteration.
        perimeter = 4 * (16 // 2)
        assert total_coherence <= 12 * perimeter

    def test_communication_rate_near_model(self):
        gen = CGTraceGenerator(n=16, num_processors=4)
        traces = [gen.trace_for_processor(pid, iterations=3) for pid in range(4)]
        mem = MultiprocessorMemory(4)
        mem.run_traces(traces)
        model = CGModel(n=16, num_processors=4)
        measured = mem.aggregate().coherence_misses / (gen.flops * 4 / 4) / 3
        # Within an order of magnitude of the analytical boundary rate.
        assert measured < 10 * model.communication_miss_rate() + 0.05


class TestModel:
    def test_prototypical_lev1_sizes(self):
        model_2d = CGModel(n=4000, num_processors=1024, dims=2)
        assert model_2d.lev1_bytes() == pytest.approx(5 * KB, rel=0.3)
        model_3d = CGModel(n=225, num_processors=1024, dims=3)
        assert model_3d.lev1_bytes() == pytest.approx(18 * KB, rel=0.5)

    def test_lev1_scales_with_grain(self):
        """A 16 MB/processor problem has lev1WS ~18 KB (2-D, Section 4.2)."""
        model = CGModel.for_dataset(16 * GB, num_processors=1024, dims=2)
        assert 10 * KB < model.lev1_bytes() < 40 * KB

    def test_comm_ratio_2d(self):
        model = CGModel()
        ratio = model.flops_per_word(GrainConfig(GB, 1024))
        assert ratio == pytest.approx(300, rel=0.15)

    def test_comm_ratio_3d(self):
        model = CGModel(dims=3)
        ratio = model.flops_per_word(GrainConfig(GB, 1024))
        assert 30 < ratio < 80  # paper: "roughly 50"

    def test_ratio_depends_on_grain_only(self):
        model = CGModel()
        assert model.flops_per_word(GrainConfig(GB, 1024)) == pytest.approx(
            model.flops_per_word(GrainConfig(2 * GB, 2048))
        )

    def test_fine_grain(self):
        """On the 16K-processor machine the ratios drop to roughly 75
        (2-D) and 20 (3-D) (Section 4.3)."""
        config = GrainConfig(GB, 16384)
        assert CGModel().flops_per_word(config) == pytest.approx(75, rel=0.15)
        assert CGModel(dims=3).flops_per_word(config) == pytest.approx(20, rel=0.25)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            CGModel(dims=4)

    def test_important_ws_is_lev1(self):
        assert CGModel().working_sets().important_working_set.level == 1

    def test_miss_rate_model_monotone(self):
        model = CGModel(n=128, num_processors=16)
        caps = [2**k for k in range(7, 24)]
        rates = [model.miss_rate_model(c) for c in caps]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
