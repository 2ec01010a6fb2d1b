#!/usr/bin/env python
"""Cache design walkthrough: size the hierarchy, pick associativity and
line size, and check prefetchability — all from measured working sets.

Pulls together four instruments on one application (Barnes-Hut, the
hardest of the five):

1. the working-set hierarchy (fully associative LRU knees),
2. two-level hierarchy sizing and verification,
3. the direct-mapped capacity penalty (Section 6.4),
4. stride-prefetch coverage of the remaining misses.

Run:  python examples/cache_design.py
"""

from repro import format_size
from repro.apps.barnes_hut import BarnesHutModel, BarnesHutTraceGenerator, plummer_model
from repro.mem.hierarchy import (
    CacheHierarchy,
    assign_working_sets,
    hierarchy_miss_rates_from_profile,
)
from repro.mem.prefetch import measure_prefetch_coverage
from repro.mem.setassoc import SetAssociativeCache
from repro.mem.stack_distance import StackDistanceProfiler
from repro.units import KB


def main() -> None:
    bodies = plummer_model(512, seed=17)
    generator = BarnesHutTraceGenerator(bodies, theta=1.0, num_processors=4)
    trace = generator.trace_for_processor(0)
    model = BarnesHutModel(n=512, theta=1.0, num_processors=4)
    print(f"traced {len(trace):,} references of the force phase")

    # 1. Working sets.
    hierarchy = model.working_sets()
    print("\n== working-set hierarchy (model) ==")
    print(hierarchy.describe())

    # 2. Hierarchy sizing: smallest power-of-two levels with 2x slack.
    sets = [(f"lev{ws.level}WS", ws.size_bytes) for ws in hierarchy.levels]
    levels = (4 * KB, 128 * KB)
    assignments = assign_working_sets(sets, levels)
    print(f"\n== two-level design: {format_size(levels[0])} L1,"
          f" {format_size(levels[1])} L2 ==")
    for assignment in assignments:
        where = (
            f"L{assignment.level + 1}"
            if assignment.level < len(levels)
            else "memory"
        )
        print(f"  {assignment.working_set_name}"
              f" ({format_size(assignment.working_set_bytes)}) -> {where}")

    profile = StackDistanceProfiler().profile(trace)
    predicted = hierarchy_miss_rates_from_profile(profile, levels)
    simulated = CacheHierarchy(levels)
    stats = simulated.run(trace)
    print("  verification (profile vs explicit simulation):")
    for index, (rate, stat) in enumerate(zip(predicted, stats)):
        print(f"    L{index + 1} local miss rate: {rate:.4f} vs"
              f" {stat.local_miss_rate:.4f}")

    # 3. Associativity: capacity needed to reach the L2 plateau.  One
    #    sweep simulates every limited-associativity cache at once.
    print("\n== associativity penalty at the important working set ==")
    fa_profile = StackDistanceProfiler(count_reads_only=True).profile(trace)
    target = fa_profile.miss_rate_at(256 * KB) * 1.25 + 1e-6
    capacities = [KB << k for k in range(10)]  # 1 KB .. 512 KB
    sweep = SetAssociativeCache.run_many(
        [SetAssociativeCache(c, 8, assoc) for assoc in (1, 4) for c in capacities],
        trace,
    )
    rates = {
        "direct-mapped": [s.read_miss_rate for s in sweep[: len(capacities)]],
        "4-way": [s.read_miss_rate for s in sweep[len(capacities) :]],
        "fully assoc": [fa_profile.miss_rate_at(c) for c in capacities],
    }
    for label, curve in rates.items():
        reached = [c for c, rate in zip(capacities, curve) if rate <= target]
        capacity = reached[0] if reached else 2 * capacities[-1]
        print(f"  {label:>13}: {format_size(capacity)} to reach the plateau")

    # 4. Prefetchability of what remains.
    coverage = measure_prefetch_coverage(trace, 2 * KB)
    print(f"\n== stride-prefetch coverage of post-lev1 misses:"
          f" {coverage.coverage:.0%} ==")
    print("(tree-walk misses are data-dependent — as the paper says,"
          " 'not predictable enough to be easily prefetched')")


if __name__ == "__main__":
    main()
