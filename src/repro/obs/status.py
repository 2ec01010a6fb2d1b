"""Live campaign status reconstructed from run-directory artifacts.

``python -m repro.experiments status <run-dir>`` answers "what is this
campaign doing *right now*" without talking to the supervisor at all:
everything is reconstructed read-only from the artifacts the runtime
already writes —

- ``events.jsonl`` (tolerant reader: a torn tail is skipped) gives the
  per-experiment state machine: start/retry/attempt-end/finish/resume;
- ``journal.wal`` (tolerant replay, **never** truncated here — status
  must be safe to run against a live campaign) corroborates in-doubt
  attempts and supplies failure categories;
- ``summary.json`` / ``manifest.json`` give the requested set and the
  terminal verdicts;
- ``supervisor.lock`` tells live from dead (a supervisor holds its
  ``flock`` until it exits; the kernel drops it when it dies);
- ``metrics.json`` supplies throughput (refs simulated, refs/sec).

:func:`load_status` builds a :class:`CampaignStatus`;
:func:`render_status` formats it for a terminal (the ``--follow`` mode
re-renders the same thing in a loop).  Every reader below tolerates
torn, missing, or corrupted files: status degrades to "unknown" fields,
it never raises on a damaged run directory.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.metrics import METRICS_FILENAME, METRICS_FORMAT

#: Experiment states reported by status (superset of outcome statuses).
STATE_PENDING = "pending"
STATE_RUNNING = "running"
STATE_IN_DOUBT = "in-doubt"
STATE_OK = "ok"
STATE_DEGRADED = "degraded"
STATE_FAILED = "failed"

_TERMINAL_STATES = (STATE_OK, STATE_DEGRADED, STATE_FAILED)


@dataclass
class ExperimentStatus:
    """Reconstructed state of one experiment inside a campaign."""

    experiment_id: str
    state: str = STATE_PENDING
    attempts: int = 0
    retries: int = 0
    failed_attempts: int = 0
    worker_kills: int = 0
    resumed: bool = False
    degraded: bool = False
    started_wall: Optional[float] = None
    finished_wall: Optional[float] = None
    last_failure: Optional[str] = None
    last_attempt_uid: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL_STATES

    def elapsed_seconds(self, now: Optional[float] = None) -> Optional[float]:
        """Wall-clock from first start to finish (or to ``now``)."""
        if self.started_wall is None:
            return None
        end = self.finished_wall
        if end is None:
            if self.state != STATE_RUNNING:
                return None
            end = time.time() if now is None else now
        return max(0.0, end - self.started_wall)

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "state": self.state,
            "attempts": self.attempts,
            "retries": self.retries,
            "failed_attempts": self.failed_attempts,
            "worker_kills": self.worker_kills,
            "resumed": self.resumed,
            "degraded": self.degraded,
            "started_wall": self.started_wall,
            "finished_wall": self.finished_wall,
            "last_failure": self.last_failure,
            "last_attempt_uid": self.last_attempt_uid,
            "elapsed_seconds": self.elapsed_seconds(),
        }


@dataclass
class CampaignStatus:
    """The reconstructed state of one campaign run directory."""

    run_dir: str
    state: str = "empty"  # running | complete | interrupted | stopped | empty
    requested: List[str] = field(default_factory=list)
    experiments: Dict[str, ExperimentStatus] = field(default_factory=dict)
    supervisor: Optional[Dict[str, object]] = None
    events_seen: int = 0
    journal_records: int = 0
    refs_simulated: Optional[int] = None
    refs_per_second: Optional[float] = None
    stream_shards_done: Optional[int] = None
    stream_shards_total: Optional[int] = None
    trace_id: Optional[str] = None
    updated_wall: Optional[float] = None
    eta_seconds: Optional[float] = None
    kernels: Optional[Dict[str, Dict[str, object]]] = None
    working_set: Optional[Dict[str, object]] = None
    notes: List[str] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        tally = {
            STATE_PENDING: 0,
            STATE_RUNNING: 0,
            STATE_IN_DOUBT: 0,
            STATE_OK: 0,
            STATE_DEGRADED: 0,
            STATE_FAILED: 0,
        }
        for exp in self.experiments.values():
            tally[exp.state] = tally.get(exp.state, 0) + 1
        return tally

    def to_dict(self) -> Dict[str, object]:
        return {
            "run_dir": self.run_dir,
            "state": self.state,
            "requested": list(self.requested),
            "counts": self.counts(),
            "experiments": {
                experiment_id: exp.to_dict()
                for experiment_id, exp in sorted(self.experiments.items())
            },
            "supervisor": self.supervisor,
            "events_seen": self.events_seen,
            "journal_records": self.journal_records,
            "refs_simulated": self.refs_simulated,
            "refs_per_second": self.refs_per_second,
            "stream_shards_done": self.stream_shards_done,
            "stream_shards_total": self.stream_shards_total,
            "trace_id": self.trace_id,
            "updated_wall": self.updated_wall,
            "eta_seconds": self.eta_seconds,
            "kernels": self.kernels,
            "working_set": self.working_set,
            "notes": list(self.notes),
        }


# -- tolerant artifact readers --------------------------------------------


def _read_envelope_payload(path: Path) -> Optional[Dict[str, object]]:
    """Checksummed envelope payload, or None on any damage."""
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.errors import CheckpointCorruptError

    store = CheckpointStore(path.parent)
    try:
        return store._read_envelope(path)
    except CheckpointCorruptError:
        return None


def load_metrics_snapshot(
    run_dir: Union[str, Path]
) -> Optional[Dict[str, object]]:
    """Read ``<run_dir>/metrics.json``; None when absent or damaged."""
    path = Path(run_dir) / METRICS_FILENAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("format") != METRICS_FORMAT:
        return None
    return payload


def _throughput_from_metrics(
    snapshot: Optional[Dict[str, object]]
) -> tuple:
    """(total refs simulated, last refs/sec) from a metrics snapshot."""
    if snapshot is None:
        return None, None
    campaign = snapshot.get("campaign")
    if not isinstance(campaign, dict):
        return None, None
    refs: Optional[int] = None
    counters = campaign.get("counters")
    if isinstance(counters, dict):
        total = 0
        seen = False
        for name, value in counters.items():
            if name.endswith(".refs") and isinstance(value, (int, float)):
                total += int(value)
                seen = True
        refs = total if seen else None
    rate: Optional[float] = None
    gauges = campaign.get("gauges")
    if isinstance(gauges, dict):
        rates = [
            float(value)
            for name, value in gauges.items()
            if name.endswith(".last_refs_per_second")
            and isinstance(value, (int, float))
        ]
        if rates:
            rate = max(rates)
    return refs, rate


def _stream_progress_from_metrics(
    snapshot: Optional[Dict[str, object]]
) -> tuple:
    """(shards done, shards total) gauges published by the streaming
    simulators (:mod:`repro.mem.streamsim`); (None, None) when the
    campaign is not streamed."""
    if snapshot is None:
        return None, None
    campaign = snapshot.get("campaign")
    if not isinstance(campaign, dict):
        return None, None
    gauges = campaign.get("gauges")
    if not isinstance(gauges, dict):
        return None, None
    done = gauges.get("mem.stream.shards_done")
    total = gauges.get("mem.stream.shards_total")
    if isinstance(done, (int, float)) and isinstance(total, (int, float)):
        return int(done), int(total)
    return None, None


def _kernel_tallies_from_metrics(
    snapshot: Optional[Dict[str, object]]
) -> Optional[Dict[str, Dict[str, object]]]:
    """Per-kernel vector-tier chunk counts (``mem.kernel.<kind>.chunks``
    counters published by :mod:`repro.mem.kernels`); None when the
    campaign never ran a kernel (oracle tier, or a pre-kernel run)."""
    if snapshot is None:
        return None
    campaign = snapshot.get("campaign")
    if not isinstance(campaign, dict):
        return None
    counters = campaign.get("counters")
    counters = counters if isinstance(counters, dict) else {}
    tallies: Dict[str, Dict[str, object]] = {}
    for name, value in counters.items():
        parts = name.split(".")
        if (
            len(parts) == 4
            and parts[:2] == ["mem", "kernel"]
            and parts[3] == "chunks"
            and isinstance(value, (int, float))
        ):
            tallies[parts[2]] = {"chunks": int(value)}
    return tallies or None


# -- reconstruction --------------------------------------------------------


def load_status(run_dir: Union[str, Path]) -> CampaignStatus:
    """Reconstruct campaign status from ``run_dir`` (read-only)."""
    from repro.runtime.events import read_events
    from repro.runtime.journal import (
        JOURNAL_FILENAME,
        lock_holder_pid,
        read_journal,
        run_dir_locked,
    )

    run_dir = Path(run_dir)
    status = CampaignStatus(run_dir=str(run_dir))

    manifest = _read_envelope_payload(run_dir / "manifest.json")
    summary = _read_envelope_payload(run_dir / "summary.json")
    events = read_events(run_dir / "events.jsonl")
    replay = read_journal(run_dir / JOURNAL_FILENAME)
    metrics = load_metrics_snapshot(run_dir)

    status.events_seen = len(events)
    status.journal_records = len(replay.records)
    if replay.torn_tail:
        status.notes.append(
            "journal has a torn tail (crash signature; truncated on resume)"
        )
    if replay.damaged:
        status.notes.append(
            f"journal has {len(replay.damaged)} damaged record(s) before "
            "the tail (storage corruption)"
        )

    # -- requested set -------------------------------------------------
    requested: List[str] = []
    if manifest is not None and isinstance(manifest.get("experiments"), list):
        requested = [str(x) for x in manifest["experiments"]]
    elif summary is not None and isinstance(summary.get("requested"), list):
        requested = [str(x) for x in summary["requested"]]
    else:
        for record in replay.records:
            if record.get("type") == "campaign-start" and isinstance(
                record.get("experiments"), list
            ):
                requested = [str(x) for x in record["experiments"]]
    status.requested = requested
    for experiment_id in requested:
        status.experiments[experiment_id] = ExperimentStatus(experiment_id)

    def exp(experiment_id: object) -> Optional[ExperimentStatus]:
        if not isinstance(experiment_id, str):
            return None
        return status.experiments.setdefault(
            experiment_id, ExperimentStatus(experiment_id)
        )

    # -- event-log state machine (authoritative for in-flight state) ---
    last_wall: Optional[float] = None
    for record in sorted(
        events,
        key=lambda r: r.get("seq") if isinstance(r.get("seq"), int) else 0,
    ):
        name = record.get("event")
        wall = record.get("t_wall")
        if isinstance(wall, (int, float)):
            last_wall = float(wall)
        entry = exp(record.get("experiment_id"))
        if entry is None:
            continue
        attempt = record.get("attempt")
        if isinstance(attempt, int):
            entry.attempts = max(entry.attempts, attempt)
        uid = record.get("attempt_uid")
        if isinstance(uid, str):
            entry.last_attempt_uid = uid
        if name in ("start", "retry"):
            if not entry.terminal:
                entry.state = STATE_RUNNING
            if entry.started_wall is None and isinstance(wall, (int, float)):
                entry.started_wall = float(wall)
            if name == "retry":
                entry.retries += 1
        elif name == "attempt-end":
            if record.get("status") == "failed":
                entry.failed_attempts += 1
        elif name == "worker-killed":
            entry.worker_kills += 1
        elif name == "finish":
            verdict = record.get("status")
            if isinstance(verdict, str) and verdict in _TERMINAL_STATES:
                entry.state = verdict
                entry.degraded = verdict == STATE_DEGRADED
            if isinstance(wall, (int, float)):
                entry.finished_wall = float(wall)
        elif name == "resume":
            entry.resumed = True
            if not entry.terminal:
                entry.state = STATE_OK  # refined by the summary below
    status.updated_wall = last_wall

    # -- journal overlay: categories and in-doubt attempts -------------
    open_attempts: Dict[str, Dict[str, object]] = {}
    for record in replay.records:
        record_type = record.get("type")
        experiment_id = record.get("experiment_id")
        if not isinstance(experiment_id, str):
            continue
        if record_type == "attempt-start":
            open_attempts[experiment_id] = record
        elif record_type == "attempt-end":
            open_attempts.pop(experiment_id, None)
            category = record.get("category")
            entry = exp(experiment_id)
            if entry is not None and isinstance(category, str):
                entry.last_failure = category

    # -- summary overlay: terminal verdicts ----------------------------
    if summary is not None and isinstance(summary.get("statuses"), dict):
        for experiment_id, verdict in summary["statuses"].items():
            entry = exp(experiment_id)
            if entry is None or not isinstance(verdict, str):
                continue
            if verdict in _TERMINAL_STATES and not entry.terminal:
                entry.state = verdict
            if verdict == STATE_DEGRADED:
                entry.state = STATE_DEGRADED
                entry.degraded = True

    # -- supervisor liveness -------------------------------------------
    live = run_dir_locked(run_dir)
    pid = lock_holder_pid(run_dir)
    if live or pid is not None:
        status.supervisor = {"pid": pid, "live": live}

    # A journal attempt-start with no attempt-end is only "running" if
    # somebody is alive to be running it; otherwise it is in doubt and
    # resume will re-run it.
    for experiment_id in open_attempts:
        entry = exp(experiment_id)
        if entry is not None and not entry.terminal:
            entry.state = STATE_RUNNING if live else STATE_IN_DOUBT

    # -- campaign verdict ----------------------------------------------
    if live:
        status.state = "running"
    elif summary is not None and summary.get("status") in (
        "complete",
        "interrupted",
    ):
        status.state = str(summary["status"])
    elif events or replay.records:
        status.state = "stopped"  # died without a terminal summary
    else:
        status.state = "empty"
    if status.state != "running":
        # Nobody is executing: anything still marked running is in doubt.
        for entry in status.experiments.values():
            if entry.state == STATE_RUNNING:
                entry.state = STATE_IN_DOUBT

    # -- throughput and ETA --------------------------------------------
    status.refs_simulated, status.refs_per_second = _throughput_from_metrics(
        metrics
    )
    status.stream_shards_done, status.stream_shards_total = (
        _stream_progress_from_metrics(metrics)
    )
    if metrics is not None and isinstance(metrics.get("trace_id"), str):
        status.trace_id = metrics["trace_id"]

    status.kernels = _kernel_tallies_from_metrics(metrics)

    # -- temporal working set: newest phase/knee from timeline.jsonl ---
    try:
        from repro.obs.timeline import load_working_set

        status.working_set = load_working_set(run_dir)
    except Exception:
        status.working_set = None

    durations = [
        entry.elapsed_seconds()
        for entry in status.experiments.values()
        if entry.terminal and not entry.resumed
        and entry.elapsed_seconds() is not None
    ]
    remaining = [
        entry
        for entry in status.experiments.values()
        if not entry.terminal
    ]
    if status.state == "running" and durations and remaining:
        status.eta_seconds = (sum(durations) / len(durations)) * len(remaining)

    return status


# -- rendering -------------------------------------------------------------


def _format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 60:
        return f"{value:.1f}s"
    minutes, seconds = divmod(value, 60.0)
    if minutes < 60:
        return f"{int(minutes)}m{seconds:02.0f}s"
    hours, minutes = divmod(minutes, 60.0)
    return f"{int(hours)}h{int(minutes):02d}m"


def render_status(status: CampaignStatus) -> str:
    """Terminal rendering of one :class:`CampaignStatus`."""
    lines = [f"== campaign status: {status.run_dir} =="]
    verdict = status.state
    if status.supervisor is not None:
        sup = status.supervisor
        liveness = "live" if sup.get("live") else "exited"
        verdict += f" (supervisor pid {sup.get('pid')}, {liveness})"
    lines.append(f"state: {verdict}")
    counts = status.counts()
    lines.append(
        f"experiments: {len(status.requested)} requested | "
        f"{counts[STATE_OK]} ok | {counts[STATE_DEGRADED]} degraded | "
        f"{counts[STATE_FAILED]} failed | {counts[STATE_RUNNING]} running | "
        f"{counts[STATE_IN_DOUBT]} in-doubt | {counts[STATE_PENDING]} pending"
    )
    throughput = []
    if status.refs_simulated is not None:
        throughput.append(f"{status.refs_simulated:,} refs simulated")
    if status.refs_per_second is not None:
        throughput.append(f"last {status.refs_per_second:,.0f} refs/s")
    if throughput:
        lines.append("throughput: " + ", ".join(throughput))
    if (
        status.stream_shards_done is not None
        and status.stream_shards_total is not None
    ):
        lines.append(
            f"streaming: shard {status.stream_shards_done}"
            f"/{status.stream_shards_total}"
        )
    if status.kernels:
        for kind in sorted(status.kernels):
            chunks = status.kernels[kind]["chunks"]
            lines.append(f"kernel {kind}: vector ({chunks} chunk(s))")
    if status.working_set:
        from repro.units import format_size

        ws = status.working_set
        detail = f"phase {ws.get('phase')}/{ws.get('phases')}"
        if isinstance(ws.get("ws_bytes"), (int, float)):
            detail += f", ws ≈ {format_size(int(ws['ws_bytes']))}"
        if isinstance(ws.get("knee_bytes"), (int, float)):
            detail += f", knee ≈ {format_size(int(ws['knee_bytes']))}"
        if ws.get("experiment_id"):
            detail += f" ({ws['experiment_id']})"
        lines.append(f"working set: {detail}")
    if status.eta_seconds is not None:
        lines.append(f"eta: ~{_format_seconds(status.eta_seconds)}")
    if status.trace_id:
        lines.append(f"trace: {status.trace_id}")
    lines.append(
        f"artifacts: {status.events_seen} event(s), "
        f"{status.journal_records} journal record(s)"
    )
    if status.experiments:
        lines.append("")
        lines.append(
            f"  {'id':<18} {'state':<9} {'attempts':>8} {'retries':>8} "
            f"{'elapsed':>8}  last-failure"
        )
        for experiment_id in sorted(status.experiments):
            entry = status.experiments[experiment_id]
            flags = ""
            if entry.resumed:
                flags = " (resumed)"
            elif entry.worker_kills:
                flags = f" ({entry.worker_kills} kill(s))"
            lines.append(
                f"  {experiment_id:<18} {entry.state:<9} "
                f"{entry.attempts:>8} {entry.retries:>8} "
                f"{_format_seconds(entry.elapsed_seconds()):>8}  "
                f"{entry.last_failure or '-'}{flags}"
            )
    for note in status.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
