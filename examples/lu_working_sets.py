#!/usr/bin/env python
"""Dense LU deep dive: the Figure 2 story plus the communication-miss
floor measured on a real multiprocessor memory simulation.

Shows (1) the analytical miss-rate curves for several block sizes at
full prototype scale, (2) a trace-driven validation at reduced scale,
and (3) the coherence (communication) misses that remain with infinite
caches, measured by running all processors' traces through private
caches with write-invalidate sharing.

Run:  python examples/lu_working_sets.py
"""

from repro import (
    MissRateCurve,
    MultiprocessorMemory,
    default_capacity_grid,
    format_size,
    profile_trace,
)
from repro.apps.lu import LUModel, LUTraceGenerator
from repro.core.report import format_curve_series


def analytical_story() -> None:
    print("== Figure 2: analytical curves, n=10,000, P=1024 ==")
    grid = default_capacity_grid(min_bytes=64, max_bytes=1024 * 1024, points_per_octave=1)
    curves = []
    for block in (4, 16, 64):
        model = LUModel(n=10_000, block_size=block, num_processors=1024)
        curves.append(
            MissRateCurve.from_model(
                model.miss_rate_model, grid,
                metric="misses_per_flop", label=f"B={block}",
            )
        )
    print(format_curve_series(curves))
    model16 = LUModel(n=10_000, block_size=16, num_processors=1024)
    print(f"\nworking sets at B=16: lev1 {format_size(model16.lev1_bytes())},"
          f" lev2 {format_size(model16.lev2_bytes())},"
          f" lev3 {format_size(model16.lev3_bytes())},"
          f" lev4 {format_size(model16.lev4_bytes())}")


def trace_validation() -> None:
    print("\n== trace validation at n=96, B=8, P=4 ==")
    generator = LUTraceGenerator(n=96, block_size=8, num_processors=4)
    trace = generator.trace_for_processor(0)
    profile = profile_trace(trace)
    curve = MissRateCurve.from_profile(
        profile,
        default_capacity_grid(min_bytes=64, max_bytes=128 * 1024),
        metric="misses_per_flop",
        flops=generator.flops,
        label="simulated",
    )
    for knee in curve.knees(rel_threshold=0.2):
        print(f"  {knee}")


def communication_floor() -> None:
    print("\n== communication misses with infinite caches (n=48, P=4) ==")
    generator = LUTraceGenerator(n=48, block_size=8, num_processors=4)
    traces = generator.traces_for_all()
    memory = MultiprocessorMemory(4)
    memory.run_traces(traces)
    total = memory.aggregate()
    print(f"  accesses: {total.accesses:,}")
    print(f"  coherence (communication) misses: {total.coherence_misses:,}"
          f" ({total.coherence_misses / total.accesses:.3%} of accesses)")
    print(f"  invalidations delivered: {total.invalidations_received:,}")
    print("  -> these persist at any cache size; they are the floor of"
          " the Figure 2 curves")


def main() -> None:
    analytical_story()
    trace_validation()
    communication_floor()


if __name__ == "__main__":
    main()
