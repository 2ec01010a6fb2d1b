"""Microbenchmarks for the measurement substrate and kernels.

These time the instruments themselves (profiler throughput, cache
simulation, application kernels) rather than paper artifacts; useful
for tracking regressions when modifying the simulators.
"""

import numpy as np
import pytest

from repro.apps.barnes_hut.bodies import plummer_model
from repro.apps.barnes_hut.force import compute_accelerations
from repro.apps.barnes_hut.trace import BarnesHutTraceGenerator
from repro.apps.cg.grid import Grid2D
from repro.apps.cg.solver import conjugate_gradient
from repro.apps.fft.transform import fft
from repro.apps.lu.factor import blocked_lu, random_diagonally_dominant
from repro.apps.volrend.render import render_frame
from repro.apps.volrend.volume import synthetic_head
from repro.mem.cache import FullyAssociativeCache
from repro.mem.setassoc import SetAssociativeCache
from repro.mem.stack_distance import profile_trace
from repro.mem.trace import Trace


def _random_trace(num_refs=50_000, num_blocks=4096, seed=0):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, num_blocks, size=num_refs).astype(np.int64) * 8
    kinds = rng.integers(0, 2, size=num_refs).astype(np.uint8)
    return Trace(addrs, kinds)


def _note_throughput(benchmark, refs: int) -> None:
    """Record references/second into the machine-readable results."""
    benchmark.extra_info["refs"] = refs
    if benchmark.stats and benchmark.stats.stats.mean:
        benchmark.extra_info["refs_per_second"] = refs / benchmark.stats.stats.mean


def bench_stack_distance_profiler(benchmark):
    trace = _random_trace()
    profile = benchmark(profile_trace, trace)
    assert profile.total == len(trace)
    _note_throughput(benchmark, len(trace))


def bench_fully_associative_cache(benchmark):
    trace = _random_trace()

    def run():
        cache = FullyAssociativeCache(1024 * 8)
        cache.hit_mask(trace)
        return cache.stats

    stats = benchmark(run)
    assert stats.accesses == len(trace)
    _note_throughput(benchmark, len(trace))


def bench_direct_mapped_cache(benchmark):
    trace = _random_trace()

    def run():
        cache = SetAssociativeCache(1024 * 8, associativity=1)
        return cache.run(trace)

    stats = benchmark(run)
    assert stats.accesses == len(trace)
    _note_throughput(benchmark, len(trace))


#: Interleaved instrumented/uninstrumented pairs the overhead row times.
OBS_OVERHEAD_PAIRS = 31


def bench_obs_overhead_stackdist(benchmark, tmp_path):
    """Instrumented-vs-uninstrumented stack-distance profile.

    Times ``profile_trace`` with metrics counting *and* timeline rows
    on (the ``stackdist`` rows every campaign writes), then the same
    profile with both off, and records both rates plus the overhead
    percentage into ``extra_info``.  Report-only: the telemetry budget
    is held at the campaign level (``benchmarks/obs_budget.py``), not
    on this one loop.
    """
    import time

    from repro.obs import metrics as obs_metrics
    from repro.obs import timeline as obs_timeline

    trace = _random_trace()

    def timed_run():
        t0 = time.perf_counter()
        profile_trace(trace)
        return time.perf_counter() - t0

    was_enabled = obs_metrics.obs_enabled()
    obs_metrics.set_obs_enabled(True)
    obs_metrics.get_registry().reset()
    timeline_path = tmp_path / "timeline.jsonl"
    # active_recorder() gates on obs_enabled, so the baseline arm below
    # automatically runs without timeline rows.
    obs_timeline.configure_timeline(timeline_path)
    try:
        profile = benchmark(profile_trace, trace)
        assert profile.total == len(trace)
        # The registry actually saw the kernel (counting was really on).
        snapshot = obs_metrics.get_registry().snapshot()
        assert any(name.endswith(".refs") for name in snapshot["counters"])

        # Interleave instrumented/uninstrumented pairs so both sides see
        # the same cache/thermal conditions, and report best-of-each
        # (min is the noise-robust statistic for a CPU-bound loop).
        instrumented_times = []
        baseline_times = []
        for _ in range(OBS_OVERHEAD_PAIRS):
            obs_metrics.set_obs_enabled(True)
            instrumented_times.append(timed_run())
            obs_metrics.set_obs_enabled(False)
            baseline_times.append(timed_run())
        # The instrumented arm really recorded timeline rows.
        assert obs_timeline.read_timeline(timeline_path)
    finally:
        obs_metrics.set_obs_enabled(was_enabled)
        obs_timeline.configure_timeline(None)

    instrumented = min(instrumented_times)
    baseline = min(baseline_times)
    _note_throughput(benchmark, len(trace))
    benchmark.extra_info["refs_per_second_instrumented"] = len(trace) / instrumented
    benchmark.extra_info["refs_per_second_uninstrumented"] = len(trace) / baseline
    benchmark.extra_info["obs_overhead_pct"] = (
        (instrumented - baseline) / baseline * 100.0
    )


def bench_lu_kernel(benchmark):
    a = random_diagonally_dominant(96, seed=1)
    packed = benchmark(lambda: blocked_lu(a.copy(), 16))
    assert packed.shape == (96, 96)


def bench_cg_solver(benchmark):
    grid = Grid2D(48)
    b = np.random.default_rng(0).standard_normal(grid.num_points)
    result = benchmark(conjugate_gradient, grid.laplacian_matvec, b, None, 1e-8)
    assert result.converged


def bench_fft_kernel(benchmark):
    x = np.random.default_rng(0).standard_normal(2**14).astype(complex)
    out = benchmark(fft, x)
    np.testing.assert_allclose(out[:4], np.fft.fft(x)[:4], atol=1e-6)


def bench_barnes_hut_force_phase(benchmark, run_once):
    bodies = plummer_model(512, seed=1)
    acc = run_once(benchmark, compute_accelerations, bodies, 1.0)
    assert acc.shape == (512, 3)


def bench_barnes_hut_force_trace(benchmark):
    """The force-phase traces of bh-phases' four processors at n=512
    (the decision walk and its reference expansion, not the physics)."""
    gen = BarnesHutTraceGenerator(plummer_model(512, seed=5), num_processors=4)

    def run():
        return sum(len(gen.trace_for_processor(pid)) for pid in range(4))

    refs = benchmark(run)
    assert refs > 0
    _note_throughput(benchmark, refs)


def bench_volume_renderer(benchmark, run_once):
    volume = synthetic_head(32)
    image = run_once(benchmark, render_frame, volume, 0.3, 32)
    assert image.shape == (32, 32)
