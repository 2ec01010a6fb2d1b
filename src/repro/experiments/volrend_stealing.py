"""Ray stealing at fine grain (paper Section 7.3).

"In the prototypical problem, every processor is assigned 1000 rays,
so that the amount of stealing is not significant. ... [at 16K
processors] every processor now processes roughly 66 rays, likely to
be too few for good load balancing without excessive stealing."

We measure *actual* per-ray costs by rendering the phantom (sample
counts per ray vary with what the ray hits), then run the ray-stealing
scheduler at several block sizes (rays per processor) and observe the
steal fraction and balance efficiency degrade as blocks shrink — the
quantitative version of the paper's judgement.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.apps.volrend.octree import MinMaxOctree
from repro.apps.volrend.partition import ImagePartition, simulate_ray_stealing
from repro.apps.volrend.render import Camera, RayCaster
from repro.apps.volrend.volume import synthetic_head
from repro.core.report import format_table
from repro.experiments.runner import ExperimentResult, SeriesComparison
from repro.obs.tracing import traced


@traced("apps.volrend.ray_costs")
def measure_ray_costs(n: int, angle: float = 0.4) -> np.ndarray:
    """Render one frame; returns per-ray sample counts (the real cost
    distribution, shaped by early termination and octree skipping)."""
    volume = synthetic_head(n)
    octree = MinMaxOctree(volume)
    caster = RayCaster(volume, octree)
    camera = Camera(angle=angle, image_size=n)
    costs = np.zeros((n, n))
    for py in range(n):
        for px in range(n):
            origin, direction = camera.ray(volume.shape, px, py)
            before = caster.samples_taken
            caster.cast(origin, direction)
            costs[py, px] = caster.samples_taken - before + 1  # +1 setup
    return costs


def run(
    n: int = 48,
    processor_counts: Sequence[int] = (4, 16, 64, 256),
    steal_overhead: float = 2.0,
) -> ExperimentResult:
    """Sweep rays-per-processor by growing the machine on a fixed
    frame."""
    result = ExperimentResult(
        experiment_id="volrend-stealing",
        title=f"Ray stealing vs grain, {n}x{n} frame of the {n}^3 phantom",
    )
    costs = measure_ray_costs(n)
    rows: List[List[object]] = []
    stats = {}
    for p in processor_counts:
        partition = ImagePartition(n, p)
        per_processor = []
        for pid in range(p):
            rows_range, cols_range = partition.block(pid)
            block = costs[
                rows_range.start : rows_range.stop,
                cols_range.start : cols_range.stop,
            ]
            per_processor.append(block.reshape(-1))
        static_finish = np.array([c.sum() for c in per_processor])
        static_eff = float(static_finish.mean() / static_finish.max())
        outcome = simulate_ray_stealing(per_processor, steal_overhead=steal_overhead)
        stats[p] = (static_eff, outcome)
        rows.append(
            [
                p,
                partition.rays_per_processor(),
                f"{static_eff:.2f}",
                f"{outcome.balance_efficiency:.2f}",
                f"{outcome.steal_fraction:.1%}",
            ]
        )
    result.tables["stealing vs machine size"] = format_table(
        [
            "P",
            "Rays/processor",
            "Static efficiency",
            "With stealing",
            "Rays stolen",
        ],
        rows,
    )
    coarse_p, fine_p = processor_counts[0], processor_counts[-1]
    result.comparisons.extend(
        [
            SeriesComparison(
                "static efficiency, coarse grain",
                None,
                stats[coarse_p][0],
                "",
                note=f"{n * n // coarse_p} rays/processor",
            ),
            SeriesComparison(
                "steal fraction, coarse grain",
                None,
                stats[coarse_p][1].steal_fraction,
                "",
                note="'the amount of stealing is not significant'",
            ),
            SeriesComparison(
                "steal fraction, fine grain",
                None,
                stats[fine_p][1].steal_fraction,
                "",
                note=f"{n * n // fine_p} rays/processor:"
                " 'too few ... without excessive stealing'",
            ),
            SeriesComparison(
                "stealing recovers efficiency (fine grain)",
                None,
                stats[fine_p][1].balance_efficiency - stats[fine_p][0],
                "efficiency gained",
            ),
        ]
    )
    result.notes.append(
        "ray costs are real sample counts from the renderer; stealing"
        f" costs {steal_overhead} sample-equivalents per stolen ray"
    )
    return result


def main() -> None:
    from repro.obs.console import info

    info(run().render())


if __name__ == "__main__":
    main()
