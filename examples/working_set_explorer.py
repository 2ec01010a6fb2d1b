#!/usr/bin/env python
"""Working-set explorer: measure any application's miss-rate curve.

The general-purpose version of quickstart.py — pick an application,
problem size and machine size from the command line; get the curve, the
knees, and the model's predicted hierarchy.

Examples::

    python examples/working_set_explorer.py lu --size 96 --block 8
    python examples/working_set_explorer.py cg --size 64 -p 4
    python examples/working_set_explorer.py fft --size 4096 --radix 8
    python examples/working_set_explorer.py barnes-hut --size 512
    python examples/working_set_explorer.py volrend --size 32
"""

import argparse
import sys

from repro import MissRateCurve, default_capacity_grid, format_size
from repro.mem.stack_distance import StackDistanceProfiler


def build_trace(args):
    """Returns (trace, metric, flops-or-None, model)."""
    if args.app == "lu":
        from repro.apps.lu import LUModel, LUTraceGenerator

        gen = LUTraceGenerator(
            n=args.size, block_size=args.block, num_processors=args.processors
        )
        trace = gen.trace_for_processor(0)
        model = LUModel(
            n=args.size, block_size=args.block, num_processors=args.processors
        )
        return trace, "misses_per_flop", gen.flops, model
    if args.app == "cg":
        from repro.apps.cg import CGModel, CGTraceGenerator

        gen = CGTraceGenerator(n=args.size, num_processors=args.processors)
        trace = gen.trace_for_processor(0, iterations=2)
        model = CGModel(n=args.size, num_processors=args.processors)
        return trace, "misses_per_flop", gen.flops / 2, model
    if args.app == "fft":
        from repro.apps.fft import FFTModel, FFTTraceGenerator

        gen = FFTTraceGenerator(
            n=args.size, num_processors=args.processors, internal_radix=args.radix
        )
        trace = gen.trace_for_processor(0)
        model = FFTModel(
            n=args.size, num_processors=args.processors, internal_radix=args.radix
        )
        return trace, "misses_per_flop", gen.flops, model
    if args.app == "barnes-hut":
        from repro.apps.barnes_hut import BarnesHutModel, BarnesHutTraceGenerator
        from repro.apps.barnes_hut.bodies import plummer_model

        bodies = plummer_model(args.size, seed=args.seed)
        gen = BarnesHutTraceGenerator(
            bodies, theta=args.theta, num_processors=args.processors
        )
        trace = gen.trace_for_processor(0)
        model = BarnesHutModel(
            n=args.size, theta=args.theta, num_processors=args.processors
        )
        return trace, "read_miss_rate", None, model
    if args.app == "volrend":
        from repro.apps.volrend import VolrendModel, VolrendTraceGenerator
        from repro.apps.volrend.volume import synthetic_head

        volume = synthetic_head(args.size, seed=args.seed)
        gen = VolrendTraceGenerator(
            volume, num_processors=args.processors, image_size=args.size
        )
        trace = gen.trace_for_processor(0, frames=2)
        model = VolrendModel(n=args.size, num_processors=args.processors)
        return trace, "read_miss_rate", None, model
    raise SystemExit(f"unknown application {args.app!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "app", choices=["lu", "cg", "fft", "barnes-hut", "volrend"]
    )
    parser.add_argument("--size", type=int, default=64,
                        help="matrix order / grid side / FFT points /"
                        " particles / voxels per side")
    parser.add_argument("-p", "--processors", type=int, default=4)
    parser.add_argument("--block", type=int, default=8, help="LU block size B")
    parser.add_argument("--radix", type=int, default=8, help="FFT internal radix")
    parser.add_argument("--theta", type=float, default=1.0, help="Barnes-Hut theta")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-cache", type=str, default="512KB")
    args = parser.parse_args()

    trace, metric, flops, model = build_trace(args)
    print(f"traced {len(trace):,} references"
          f" (footprint {format_size(trace.footprint_bytes())})")

    from repro.units import parse_size

    profiler = StackDistanceProfiler(
        count_reads_only=(metric == "read_miss_rate"),
        warmup=len(trace) // 10,
    )
    profile = profiler.profile(trace)
    grid = default_capacity_grid(64, parse_size(args.max_cache))
    curve = MissRateCurve.from_profile(
        profile, grid, metric=metric, flops=flops, label=args.app
    )
    print()
    print(curve.render_ascii())
    print("\nknees:")
    for knee in curve.knees(rel_threshold=0.2):
        print(f"  {knee}")
    print("\nmodel hierarchy:")
    print(model.working_sets().describe())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
