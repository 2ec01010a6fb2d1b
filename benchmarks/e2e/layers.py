"""Per-layer attribution of a traced workload pass.

Every traced process leaves ``spans-<pid>.json`` (written by
``site/sitecustomize.py``).  :func:`load` merges the files into
one forest: a thread's outermost span hangs under its process span, and
a process span hangs under the innermost span of its parent process
that was open when it started (a campaign worker lands under the
supervisor's ``runtime.attempt``).  :func:`layer_metrics` then gives
each span's self time -- its duration minus its children's -- to one
bucket, so the buckets plus ``unattributed_s`` add up to the traced
wall time.

The nested-harness rule: everything inside the outermost
``mem.kernels.guard`` span goes to ``mem.kernels.harness_s`` (that is
the shadow-verify replay through the simulators), except the kernel
math itself, which goes to ``mem.kernels.math_s``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

GUARD = "mem.kernels.guard"
MATH = "mem.kernels.math"
SIMULATORS = ("mem.stackdist", "mem.fullassoc", "mem.setassoc", "mem.hierarchy", "mem.multiproc")

#: Self-time buckets; with ``unattributed_s`` they partition the wall time.
BUCKETS = (
    "process.self_s",
    "experiments.self_s",
    "apps.generate_s",
    "mem.stackdist_s",
    "mem.fullassoc_s",
    "mem.setassoc_s",
    "mem.hierarchy_s",
    "mem.multiproc_s",
    "mem.kernels.math_s",
    "mem.kernels.harness_s",
    "core.curves_s",
    "runtime.spawn_s",
    "runtime.journal_s",
    "runtime.checkpoint_s",
    "runtime.events_s",
    "obs.timeline_s",
)

_BUCKET_OF = {
    "process": "process.self_s",
    "apps.generate": "apps.generate_s",
    MATH: "mem.kernels.math_s",
    GUARD: "mem.kernels.harness_s",
    "core.curves": "core.curves_s",
    "runtime.attempt": "runtime.spawn_s",
    "runtime.journal": "runtime.journal_s",
    "runtime.checkpoint": "runtime.checkpoint_s",
    "runtime.events": "runtime.events_s",
    "obs.timeline": "obs.timeline_s",
}
_BUCKET_OF.update({name: name + "_s" for name in SIMULATORS})


@dataclass
class Span:
    name: str
    start: float
    end: float
    count: Optional[int] = None
    ok: Optional[bool] = None
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def link(processes: Iterable[dict]) -> List[Span]:
    """Merge per-process span lists into one forest (see module doc).

    Each process is ``{"pid", "ppid", "spans": [[name, start, end,
    parent, thread, count, ok], ...]}`` whose first span is its
    ``process`` span.
    """
    spans: List[Span] = []
    process_index: Dict[int, int] = {}
    by_pid: Dict[int, List[int]] = {}
    ppid_of: Dict[int, int] = {}
    for proc in processes:
        pid = int(proc["pid"])
        base = len(spans)
        process_index[pid] = base
        ppid_of[pid] = int(proc["ppid"])
        by_pid[pid] = []
        process_end = proc["spans"][0][2]
        for i, (name, start, end, parent, _thread, count, ok) in enumerate(proc["spans"]):
            if end is None:  # a thread still inside a call at exit
                end = process_end
            if i == 0:
                parent_index = None
            elif parent is None or parent < 0:
                parent_index = base
            else:
                parent_index = base + parent
            spans.append(Span(name, start, end, count, ok, parent_index))
            by_pid[pid].append(len(spans) - 1)
    for pid, root in process_index.items():
        candidates = [
            i
            for i in by_pid.get(ppid_of[pid], [])
            if spans[i].start <= spans[root].start and spans[root].end <= spans[i].end
        ]
        if candidates:
            spans[root].parent = max(candidates, key=lambda i: spans[i].start)
    for i, span in enumerate(spans):
        if span.parent is not None:
            spans[span.parent].children.append(i)
    return spans


def load(directory: Path) -> Tuple[List[Span], float]:
    """The linked spans of one traced pass, and the tracer's own cost in
    seconds: in each process, its wrapped calls times their measured
    per-call cost (the ``process`` span is not a call), plus the work it
    did at exit before writing its file."""
    processes = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(directory).glob("spans-*.json"))
    ]
    cost_s = sum((len(p["spans"]) - 1) * p["span_cost_s"] + p["exit_s"] for p in processes)
    return link(processes), cost_s


def layer_metrics(spans: List[Span], wall_s: float) -> Dict[str, float]:
    """Self time per bucket, counts, and per-experiment times: each
    experiment's inclusive ``experiments.<id>_s`` and the harness self
    time under it, ``mem.kernels.harness.<id>_s``."""
    out: Dict[str, float] = {name: 0.0 for name in BUCKETS}
    counts = {
        "apps.refs": 0,
        "mem.refs": 0,
        "mem.kernels.calls": 0,
        "mem.kernels.vector_calls": 0,
        "mem.kernels.replayed_refs": 0,
        "runtime.attempts": 0,
        "obs.timeline_rows": 0,
    }
    experiments: Dict[str, float] = {}
    harness_of: Dict[str, float] = {}  # harness self time per experiment
    attempt_s = 0.0
    attempt_run_s = 0.0

    # Walk each tree top-down carrying what the ancestors were.
    roots = [i for i, span in enumerate(spans) if span.parent is None]
    stack = [(i, False, False, False, None, False) for i in roots]
    while stack:
        i, in_guard, in_sim, in_apps, experiment, in_attempt = stack.pop()
        span = spans[i]
        name = span.name
        self_s = span.duration - sum(spans[c].duration for c in span.children)
        is_sim = name in SIMULATORS
        if in_guard:
            bucket = "mem.kernels.math_s" if name == MATH else "mem.kernels.harness_s"
            if is_sim and not in_sim:
                counts["mem.kernels.replayed_refs"] += span.count or 0
        else:
            if name.startswith("experiments."):
                bucket = "experiments.self_s"
            else:
                bucket = _BUCKET_OF.get(name, "process.self_s")
            if name == GUARD:
                counts["mem.kernels.calls"] += 1
                counts["mem.kernels.vector_calls"] += 1 if span.ok else 0
            if is_sim and not in_sim:
                counts["mem.refs"] += span.count or 0
        out[bucket] += self_s
        if bucket == "mem.kernels.harness_s" and experiment is not None:
            key = "mem.kernels.harness." + experiment[len("experiments."):] + "_s"
            harness_of[key] = harness_of.get(key, 0.0) + self_s
        if name == "apps.generate" and not in_apps:
            counts["apps.refs"] += span.count or 0
        if name.startswith("experiments.") and experiment is None:
            experiments[name + "_s"] = experiments.get(name + "_s", 0.0) + span.duration
            if in_attempt:
                attempt_run_s += span.duration
        if name == "runtime.attempt":
            counts["runtime.attempts"] += 1
            attempt_s += span.duration
        if name == "obs.timeline":
            counts["obs.timeline_rows"] += span.count or 0
        child_state = (
            in_guard or name == GUARD,
            (in_sim or is_sim) and not (name == GUARD),
            in_apps or name == "apps.generate",
            experiment or (name if name.startswith("experiments.") else None),
            in_attempt or name == "runtime.attempt",
        )
        stack.extend((c,) + child_state for c in span.children)

    out.update({k: float(v) for k, v in counts.items()})
    out["apps.refs_per_s"] = (
        counts["apps.refs"] / out["apps.generate_s"] if out["apps.generate_s"] > 0 else 0.0
    )
    out["mem.kernels.replay_frac"] = (
        counts["mem.kernels.replayed_refs"] / counts["mem.refs"] if counts["mem.refs"] else 0.0
    )
    out["runtime.attempt_s"] = attempt_s
    out["runtime.worker_overhead_s"] = attempt_s - attempt_run_s
    out["trace.wall_s"] = wall_s
    out["unattributed_s"] = wall_s - sum(out[name] for name in BUCKETS)
    out.update(experiments)
    out.update(harness_of)
    return out
