"""Barnes-Hut phase study (Section 6.4, second caveat).

"Although the force-calculation phase can be parallelized very
efficiently on large numbers of processors, some other phases — such as
building the octree and computing the moments of cells — do not yield
quite as good speedups due to larger amounts of synchronization and
contention that they encounter."

We measure the *sharing intensity* of each phase directly: run every
processor's per-phase reference trace through the write-invalidate
multiprocessor memory with infinite caches and compare coherence-miss
and invalidation rates.  The build and moments phases write shared
upper-tree cells, so their rates should exceed the force phase's by a
large factor.
"""

from __future__ import annotations

from typing import Dict

from repro.apps.barnes_hut.bodies import plummer_model
from repro.apps.barnes_hut.trace import BarnesHutTraceGenerator
from repro.core.report import format_table
from repro.experiments.runner import ExperimentResult, SeriesComparison
from repro.mem.multiproc import MultiprocessorMemory


def _phase_sharing(memory: MultiprocessorMemory, traces) -> Dict[str, float]:
    """Run one phase on a persistent machine state; report its sharing
    rates (coherence re-fetches, invalidations, and remote reads —
    consuming data another processor produced, possibly in an earlier
    phase)."""
    memory.reset_stats()
    memory.run_traces(traces)
    total = memory.aggregate()
    accesses = max(total.accesses, 1)
    return {
        "accesses": float(total.accesses),
        "coherence_rate": total.coherence_misses / accesses,
        "invalidation_rate": total.invalidations_received / accesses,
        "remote_read_rate": total.remote_reads / accesses,
        "sharing_rate": (total.coherence_misses + total.remote_reads)
        / accesses,
    }


def run(
    n: int = 512, theta: float = 1.0, num_processors: int = 4, seed: int = 5
) -> ExperimentResult:
    """Compare sharing intensity across build / moments / force phases."""
    result = ExperimentResult(
        experiment_id="bh-phases",
        title=(
            f"Barnes-Hut phase sharing: n={n}, theta={theta},"
            f" p={num_processors}"
        ),
    )
    bodies = plummer_model(n, seed=seed)
    gen = BarnesHutTraceGenerator(bodies, theta=theta, num_processors=num_processors)
    # Phases execute sequentially on one machine state, exactly as a
    # time-step does: build writes the tree, moments reads/writes it,
    # force reads it.
    phases = [
        (
            "tree build",
            [gen.build_trace_for_processor(pid) for pid in range(num_processors)],
        ),
        (
            "moments",
            [gen.moments_trace_for_processor(pid) for pid in range(num_processors)],
        ),
        (
            "force",
            [gen.trace_for_processor(pid) for pid in range(num_processors)],
        ),
    ]
    memory = MultiprocessorMemory(num_processors)
    rows = []
    rates = {}
    for name, traces in phases:
        sharing = _phase_sharing(memory, traces)
        rates[name] = sharing
        rows.append(
            [
                name,
                f"{sharing['accesses']:,.0f}",
                f"{sharing['coherence_rate']:.3%}",
                f"{sharing['invalidation_rate']:.3%}",
                f"{sharing['remote_read_rate']:.3%}",
            ]
        )
    result.tables["phase sharing intensity (infinite caches)"] = format_table(
        [
            "Phase",
            "References",
            "Coherence miss rate",
            "Invalidation rate",
            "Remote-read rate",
        ],
        rows,
    )
    build_vs_force = rates["tree build"]["sharing_rate"] / max(
        rates["force"]["sharing_rate"], 1e-12
    )
    moments_vs_force = rates["moments"]["sharing_rate"] / max(
        rates["force"]["sharing_rate"], 1e-12
    )
    result.comparisons.extend(
        [
            SeriesComparison(
                "build/force sharing-rate ratio",
                None,
                build_vs_force,
                "x",
                note="paper: build 'does not yield quite as good speedups'",
            ),
            SeriesComparison(
                "moments/force sharing-rate ratio",
                None,
                moments_vs_force,
                "x",
            ),
            SeriesComparison(
                "force-phase fraction of references",
                None,
                rates["force"]["accesses"]
                / sum(r["accesses"] for r in rates.values()),
                "",
                note="force dominates work on moderate machines",
            ),
        ]
    )
    result.notes.append(
        "phase attribution: each body's insertion path belongs to its"
        " owner; each cell's moment computation to the owner of its"
        " first body (a costzones-style assignment)"
    )
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
