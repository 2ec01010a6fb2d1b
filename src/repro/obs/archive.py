"""Cross-campaign performance archive with regression detection.

``perf-archive.jsonl`` is an append-only, CRC-framed record of how
fast this reproduction runs over time: one row per finished campaign
(``python -m repro.experiments --archive PATH ...``) and one row per
benchmark (``benchmarks/compare_baseline.py --archive PATH``).  Every
row is attributed — git SHA, ISO timestamp, hostname — so a regression
can be walked back to the commit that introduced it, in the spirit of
fleet-level workload telemetry (Blue Waters): trends that no single
run can show.

Rows are ``PFA1`` records in the shared CRC frame and damage rule of
:mod:`repro.runtime.records` (fault site ``"archive"``); strict
checking is ``repro.validate`` code ``archive-corrupt``.  Regression
detection is robust: for each series the newest row is compared
against the *median* of its history, with a median-absolute-deviation
band so noisy hardware does not flag — see :func:`detect_regressions`
and the ``trends`` CLI subcommand.
"""

from __future__ import annotations

import json
import socket
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.runtime import records

#: Frame magic for ``perf-archive.jsonl`` rows.
ARCHIVE_MAGIC = "PFA1"

#: Canonical artifact name (run directory or repository root).
ARCHIVE_FILENAME = "perf-archive.jsonl"

#: Row format version.
ARCHIVE_VERSION = 1

#: Attribution keys every archive row must carry to be trusted.
ATTRIBUTION_KEYS = ("git_sha", "timestamp", "hostname")

_MAD_SCALE = 1.4826


# -- attribution ------------------------------------------------------------


def git_sha(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The current commit SHA, or ``None`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def attribution(
    cwd: Optional[Union[str, Path]] = None, now: Optional[float] = None
) -> Dict[str, str]:
    """Best-effort row attribution; ``git_sha`` is omitted (not faked)
    when the SHA cannot be resolved — unattributed rows are *refused*
    by the archive writers, never silently invented."""
    out: Dict[str, str] = {
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z",
            time.localtime(time.time() if now is None else now),
        ),
        "hostname": socket.gethostname(),
    }
    sha = git_sha(cwd)
    if sha:
        out["git_sha"] = sha
    return out


def missing_attribution(row: Dict[str, object]) -> List[str]:
    """The attribution keys ``row`` lacks (empty when attributed)."""
    return [
        key
        for key in ATTRIBUTION_KEYS
        if not (isinstance(row.get(key), str) and row.get(key))
    ]


def is_attributed(row: Dict[str, object]) -> bool:
    return not missing_attribution(row)


# -- reading / appending ----------------------------------------------------


def read_archive(path: Union[str, Path]) -> List[Dict[str, object]]:
    """All intact archive rows (damage is skipped)."""
    return records.scan(path, ARCHIVE_MAGIC).records


def append_rows(
    path: Union[str, Path], rows: Sequence[Dict[str, object]]
) -> int:
    """Append attributed rows; returns the number written.

    Raises :class:`ValueError` on any unattributed row — an archive of
    anonymous numbers cannot be walked back to a commit, so it is
    worse than no archive at all.
    """
    rows = list(rows)
    for row in rows:
        missing = missing_attribution(row)
        if missing:
            raise ValueError(
                "refusing unattributed archive row "
                f"(missing {', '.join(missing)}): "
                f"{json.dumps(row, sort_keys=True)[:200]}"
            )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with records.RecordLog(path, ARCHIVE_MAGIC, "archive") as log:
        for row in rows:
            log.append(row)
    return len(rows)


# -- row builders -----------------------------------------------------------


def campaign_rows(
    run_dir: Union[str, Path], now: Optional[float] = None
) -> List[Dict[str, object]]:
    """One archive row summarising a finished campaign run directory.

    Pulls throughput from the campaign status (metrics snapshot) and
    phase/knee estimates from the timeline artifact itself; the kernel
    tier is this process's configured tier.
    """
    from repro.obs.status import load_status
    from repro.obs.timeline import (
        TIMELINE_FILENAME,
        detect_phases,
        kernel_tier,
        latest_attempt_rows,
        read_timeline,
    )

    run_dir = Path(run_dir)
    status = load_status(run_dir)
    if not status.requested and not status.experiments:
        return []
    experiments = sorted(status.experiments) or sorted(status.requested)
    row: Dict[str, object] = {
        "v": ARCHIVE_VERSION,
        "kind": "campaign",
        "series": "campaign:" + ",".join(experiments),
        "run_dir": run_dir.name,
        "state": status.state,
        "experiments": experiments,
    }
    # Attribute with the *code's* SHA (the checkout this module runs
    # from), not the run directory — run dirs usually live outside the
    # repository, and it is the code revision the numbers trace back to.
    row.update(attribution(cwd=Path(__file__).resolve().parent, now=now))
    if status.refs_per_second is not None:
        row["refs_per_second"] = float(status.refs_per_second)
    if status.refs_simulated is not None:
        row["refs_simulated"] = int(status.refs_simulated)
    row["kernel_tier"] = kernel_tier()
    timeline_rows = read_timeline(run_dir / TIMELINE_FILENAME)
    if timeline_rows:
        knees: Dict[str, object] = {}
        phases_by_experiment: Dict[str, int] = {}
        miss_rates: Dict[str, float] = {}
        for experiment_id in experiments:
            rows = latest_attempt_rows(timeline_rows, experiment_id)
            if not rows:
                continue
            phases = detect_phases(rows)
            if not phases:
                continue
            phases_by_experiment[experiment_id] = len(phases)
            per_phase = [
                [int(k.capacity_bytes) for k in phase.knees()]
                for phase in phases
            ]
            knees[experiment_id] = per_phase
            rates = [
                phase.to_dict().get("miss_rate")
                for phase in phases
            ]
            rates = [r for r in rates if isinstance(r, (int, float))]
            if rates:
                miss_rates[experiment_id] = max(rates)
        if phases_by_experiment:
            row["phases"] = phases_by_experiment
        if knees:
            row["knee_bytes"] = knees
        if miss_rates:
            row["miss_rates"] = miss_rates
    return [row]


def bench_rows(
    payload: Dict[str, object], now: Optional[float] = None
) -> List[Dict[str, object]]:
    """Archive rows from a ``BENCH_results.json`` payload.

    Only rows stamped with attribution by ``benchmarks/conftest.py``
    are convertible; callers decide whether missing attribution is an
    error (``compare_baseline.py --archive`` refuses them).
    """
    out: List[Dict[str, object]] = []
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list):
        return out
    for entry in benchmarks:
        if not isinstance(entry, dict):
            continue
        name = entry.get("name")
        if not isinstance(name, str):
            continue
        extra = entry.get("extra_info")
        extra = extra if isinstance(extra, dict) else {}
        stats = entry.get("stats")
        stats = stats if isinstance(stats, dict) else {}
        row: Dict[str, object] = {
            "v": ARCHIVE_VERSION,
            "kind": "bench",
            "series": f"bench:{name}",
            "bench": name,
        }
        attr = entry.get("attribution")
        if isinstance(attr, dict):
            for key in ATTRIBUTION_KEYS:
                value = attr.get(key)
                if isinstance(value, str) and value:
                    row[key] = value
        rate = extra.get("refs_per_second")
        if isinstance(rate, (int, float)):
            row["refs_per_second"] = float(rate)
        overhead = extra.get("obs_overhead_pct")
        if isinstance(overhead, (int, float)):
            row["obs_overhead_pct"] = float(overhead)
        mean = stats.get("mean")
        if isinstance(mean, (int, float)):
            row["mean_seconds"] = float(mean)
        out.append(row)
    return out


# -- regression detection ---------------------------------------------------


def _series_metric(row: Dict[str, object], metric: str) -> Optional[float]:
    value = row.get(metric)
    return float(value) if isinstance(value, (int, float)) else None


def detect_regressions(
    rows: Sequence[Dict[str, object]],
    metric: str = "refs_per_second",
    threshold_pct: float = 10.0,
    mad_k: float = 3.0,
) -> List[Dict[str, object]]:
    """Robust per-series regression check: newest row vs history.

    For each series with at least two rows carrying ``metric``, the
    newest value is compared against the median of all earlier values.
    The flag threshold is the larger of ``threshold_pct`` and the
    series' own noise band (``mad_k`` scaled MADs as a percentage of
    the median), so a stable series flags at ``threshold_pct`` while a
    noisy one needs a genuinely out-of-band drop.  Returns one summary
    dict per series; ``regression=True`` marks a flagged drop.
    """
    import numpy as np

    by_series: Dict[str, List[Dict[str, object]]] = {}
    for row in rows:
        series = row.get("series")
        if isinstance(series, str) and _series_metric(row, metric) is not None:
            by_series.setdefault(series, []).append(row)
    out: List[Dict[str, object]] = []
    for series in sorted(by_series):
        series_rows = by_series[series]
        values = [_series_metric(r, metric) for r in series_rows]
        if len(values) < 2:
            out.append(
                {
                    "series": series,
                    "rows": len(values),
                    "current": values[-1],
                    "regression": False,
                    "note": "insufficient history",
                }
            )
            continue
        history = np.asarray(values[:-1], dtype=np.float64)
        current = float(values[-1])
        median = float(np.median(history))
        mad = float(np.median(np.abs(history - median)))
        drop_pct = (
            100.0 * (median - current) / median if median > 0.0 else 0.0
        )
        noise_pct = (
            100.0 * mad_k * _MAD_SCALE * mad / median if median > 0.0 else 0.0
        )
        threshold = max(threshold_pct, noise_pct)
        out.append(
            {
                "series": series,
                "rows": len(values),
                "current": current,
                "median": median,
                "mad": mad,
                "drop_pct": drop_pct,
                "threshold_pct": threshold,
                "regression": drop_pct > threshold,
                "last_sha": series_rows[-1].get("git_sha"),
            }
        )
    return out


def render_trends(findings: Sequence[Dict[str, object]]) -> str:
    """Terminal rendering of :func:`detect_regressions` output."""
    if not findings:
        return "perf archive: no series with trackable metrics"
    width = max(len(str(f.get("series"))) for f in findings)
    lines = [
        f"{'series':<{width}}  {'rows':>4} {'median':>14} {'current':>14} "
        f"{'drop':>8}  verdict"
    ]
    for finding in findings:
        median = finding.get("median")
        current = finding.get("current")
        drop = finding.get("drop_pct")
        if finding.get("note") == "insufficient history":
            verdict = "baseline (first row)"
        elif finding.get("regression"):
            verdict = (
                f"REGRESSION (> {finding.get('threshold_pct', 0.0):.1f}% "
                "band)"
            )
        else:
            verdict = "ok"
        lines.append(
            f"{finding.get('series'):<{width}}  "
            f"{finding.get('rows', 0):>4} "
            + (f"{median:>14,.1f} " if isinstance(median, float) else f"{'-':>14} ")
            + (f"{current:>14,.1f} " if isinstance(current, float) else f"{'-':>14} ")
            + (f"{drop:>+7.1f}%" if isinstance(drop, float) else f"{'-':>8}")
            + f"  {verdict}"
        )
    flagged = sum(1 for f in findings if f.get("regression"))
    lines.append(
        f"{flagged} regression(s) across {len(findings)} series"
        if flagged
        else f"no regressions across {len(findings)} series"
    )
    return "\n".join(lines)
