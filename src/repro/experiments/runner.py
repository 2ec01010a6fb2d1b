"""Common structure for experiment results, and the worker entry point.

Every experiment driver produces an :class:`ExperimentResult` holding
the measured/model series plus paper-vs-measured comparisons, so that
tests, benchmarks and EXPERIMENTS.md all consume the same object.

This module also holds the *worker-side* entry point of the
hard-isolation backend (:mod:`repro.runtime.workers`): a worker forked
by :mod:`repro.runtime.forkserver` calls :func:`worker_main` with one
JSON :class:`~repro.runtime.workers.AttemptSpec`, which applies its
address-space rlimit to itself, rebuilds the experiment runner and
kwargs, runs exactly one attempt under the cooperative budget, and
writes one JSON payload to its payload fd.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.curves import MissRateCurve
from repro.core.report import banner, format_curve_series, format_table


@dataclass
class SeriesComparison:
    """One paper-reported quantity against our measurement.

    Attributes:
        quantity: What is compared (e.g. ``"lev2WS size"``).
        paper_value: The paper's reported number (None when the paper
            gives only a qualitative statement).
        measured_value: Our number.
        unit: Unit label.
        note: Commentary on agreement/divergence.
    """

    quantity: str
    paper_value: Optional[float]
    measured_value: float
    unit: str = ""
    note: str = ""

    def __post_init__(self) -> None:
        # Plain floats, so an in-process result serializes exactly like
        # one that crossed a worker's JSON channel (256.0, never 256).
        if self.paper_value is not None:
            self.paper_value = float(self.paper_value)
        self.measured_value = float(self.measured_value)

    @property
    def ratio(self) -> Optional[float]:
        if self.paper_value in (None, 0):
            return None
        return self.measured_value / self.paper_value

    def row(self) -> List[object]:
        paper = "-" if self.paper_value is None else f"{self.paper_value:.4g}"
        ratio = "-" if self.ratio is None else f"{self.ratio:.2f}x"
        return [
            self.quantity,
            paper,
            f"{self.measured_value:.4g}",
            self.unit,
            ratio,
            self.note,
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by campaign checkpoints)."""
        return {
            "quantity": self.quantity,
            "paper_value": self.paper_value,
            "measured_value": self.measured_value,
            "unit": self.unit,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SeriesComparison":
        return cls(
            quantity=str(payload["quantity"]),
            paper_value=payload.get("paper_value"),
            measured_value=payload["measured_value"],
            unit=str(payload.get("unit", "")),
            note=str(payload.get("note", "")),
        )


@dataclass
class ExperimentResult:
    """The outcome of one table/figure reproduction.

    Attributes:
        experiment_id: e.g. ``"fig2"``.
        title: The paper artifact reproduced.
        curves: Miss-rate series (for figures).
        comparisons: Paper-vs-measured rows.
        tables: Extra named ASCII tables (for table experiments).
        notes: Free-form commentary.
    """

    experiment_id: str
    title: str
    curves: List[MissRateCurve] = field(default_factory=list)
    comparisons: List[SeriesComparison] = field(default_factory=list)
    tables: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable report of the experiment."""
        parts = [banner(f"{self.experiment_id}: {self.title}")]
        if self.curves:
            parts.append(format_curve_series(self.curves))
        for name, table in self.tables.items():
            parts.append(f"\n-- {name} --")
            parts.append(table)
        if self.comparisons:
            parts.append("\n-- paper vs measured --")
            parts.append(
                format_table(
                    ["quantity", "paper", "measured", "unit", "ratio", "note"],
                    [c.row() for c in self.comparisons],
                )
            )
        if self.notes:
            parts.append("")
            parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)

    def comparison(self, quantity: str) -> SeriesComparison:
        for comp in self.comparisons:
            if comp.quantity == quantity:
                return comp
        raise KeyError(f"no comparison named {quantity!r}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by campaign checkpoints)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "curves": [curve.to_dict() for curve in self.curves],
            "comparisons": [comp.to_dict() for comp in self.comparisons],
            "tables": dict(self.tables),
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperimentResult":
        return cls(
            experiment_id=str(payload["experiment_id"]),
            title=str(payload["title"]),
            curves=[MissRateCurve.from_dict(c) for c in payload.get("curves", [])],
            comparisons=[
                SeriesComparison.from_dict(c)
                for c in payload.get("comparisons", [])
            ],
            tables=dict(payload.get("tables", {})),
            notes=list(payload.get("notes", [])),
        )


# -- worker-side entry point (hard-isolation backend) ---------------------


def worker_main(spec_text: str, payload_fd: int) -> int:
    """Run one experiment attempt as a supervised worker process.

    Protocol (see :mod:`repro.runtime.workers`): ``spec_text`` is one
    JSON ``AttemptSpec``; one JSON payload leaves on ``payload_fd`` —
    ``{"ok": true, "result": ...}`` or ``{"ok": false, "failure": ...}``
    with a pre-classified ``ExperimentFailure``.  Returns 0 once the
    payload was delivered (success *or* classified failure); any other
    exit is a crash for the supervisor to classify.

    Stdout hygiene: the payload has its own fd, and fd 1 (and
    ``sys.stdout``) is pointed at stderr before any experiment code
    runs, so stray prints land in the forensics tail and cannot corrupt
    the protocol.

    Args:
        spec_text: The ``AttemptSpec`` JSON from the fork request.
        payload_fd: The fd the payload is written to (and closed).
    """
    import json
    import os

    # Keep stray prints off the payload channel before anything runs.
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    from repro.runtime.budget import Budget, activate
    from repro.runtime.errors import ExperimentFailure, WorkerMemoryError
    from repro.runtime.workers import (
        AttemptSpec,
        apply_address_space_limit,
        resolve_runner_ref,
    )

    from repro.obs import metrics as obs_metrics
    from repro.obs import tracing as obs_tracing

    spec: Optional[AttemptSpec] = None
    worker_tracer = None
    try:
        spec = AttemptSpec.from_json(spec_text)
        if spec.obs:
            # The supervisor asked for telemetry: collect metrics and
            # buffer spans in-process; both ship back in the payload.
            obs_metrics.set_obs_enabled(True)
            worker_tracer = obs_tracing.configure(
                trace_id=spec.trace_id,
                root_parent=spec.parent_span_id,
                buffered=True,
            )
        if spec.timeline:
            # Append to the supervisor's timeline file (set only when
            # telemetry is on) and stamp this attempt's identity into
            # every row.
            from repro.obs import timeline as obs_timeline
            from repro.runtime.journal import attempt_uid as _attempt_uid

            obs_timeline.configure_timeline(spec.timeline).set_labels(
                experiment_id=spec.experiment_id,
                attempt_uid=_attempt_uid(
                    spec.experiment_id, spec.generation, spec.attempt
                ),
            )
        apply_address_space_limit(spec.max_rss_mb)
        runner = resolve_runner_ref(spec.runner)
        budget = Budget(spec.budget_seconds)
        with activate(budget):
            with obs_tracing.span(
                "worker.run",
                experiment_id=spec.experiment_id,
                attempt=spec.attempt,
                degraded=spec.degraded,
            ):
                run = getattr(runner, "run", runner)
                result = run(**spec.kwargs)
        if not isinstance(result, ExperimentResult):
            raise TypeError(
                f"experiment runner {runner!r} returned "
                f"{type(result).__name__}, expected ExperimentResult"
            )
        payload = {"ok": True, "result": result.to_dict()}
    except MemoryError:
        # Free whatever blew up before attempting any further work.
        import gc

        gc.collect()
        experiment_id = spec.experiment_id if spec else "<unparsed spec>"
        limit = spec.max_rss_mb if spec else None
        detail = (
            f"address-space rlimit of {limit} MiB"
            if limit is not None
            else "memory exhaustion (no rlimit configured)"
        )
        exc = WorkerMemoryError(
            f"worker for {experiment_id} hit its {detail}; the allocation "
            "failure was contained to this worker"
        )
        payload = {
            "ok": False,
            "failure": ExperimentFailure.from_exception(
                experiment_id,
                exc,
                attempt=spec.attempt if spec else 1,
                degraded=spec.degraded if spec else False,
            ).to_dict(),
        }
    except BaseException as exc:  # noqa: BLE001 — classification is the point
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        experiment_id = spec.experiment_id if spec else "<unparsed spec>"
        payload = {
            "ok": False,
            "failure": ExperimentFailure.from_exception(
                experiment_id,
                exc,
                attempt=spec.attempt if spec else 1,
                degraded=spec.degraded if spec else False,
            ).to_dict(),
        }

    # Ship telemetry alongside the result: the worker's metrics
    # snapshot, its buffered spans, and the process RSS peak.  Failures
    # carry telemetry too — a failing attempt is exactly the one an
    # operator wants numbers from.
    if spec is not None and spec.obs:
        rss_peak_kb: Optional[int] = None
        try:
            import resource

            rss_peak_kb = int(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            )
        except (ImportError, OSError):  # pragma: no cover - platform
            pass
        payload["obs"] = {
            "metrics": obs_metrics.get_registry().snapshot(),
            "spans": [
                s.to_dict()
                for s in (
                    worker_tracer.drain() if worker_tracer is not None else []
                )
            ],
            "rss_peak_kb": rss_peak_kb,
        }
    with os.fdopen(payload_fd, "w", encoding="utf-8") as out:
        json.dump(payload, out)
        out.flush()
    return 0
