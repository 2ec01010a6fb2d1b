"""Static post-hoc campaign report (markdown or HTML).

``python -m repro.experiments report <run-dir>`` renders one document
answering "what happened and where did the time go" for a finished (or
interrupted) campaign: per-experiment timings and verdicts, the
retry/fault/validation story from ``events.jsonl``, miss-rate result
tables from the checkpointed outcomes, the campaign metrics rollup
from ``metrics.json``, and the slowest spans from ``spans.jsonl``.

Everything is reconstructed read-only through the same tolerant
readers as :mod:`repro.obs.status`; a torn or damaged artifact costs a
section, never the report.
"""

from __future__ import annotations

import html as _html
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.status import (
    CampaignStatus,
    _format_seconds,
    load_metrics_snapshot,
    load_status,
)


def _md_table(headers: List[str], rows: List[List[object]]) -> List[str]:
    """Markdown table lines (empty when there are no rows)."""
    if not rows:
        return []
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def _event_tallies(events: List[Dict[str, object]]) -> Dict[str, int]:
    tally: Dict[str, int] = {}
    for record in events:
        name = record.get("event")
        if isinstance(name, str):
            tally[name] = tally.get(name, 0) + 1
    return tally


def _result_sections(run_dir: Path) -> List[str]:
    """Paper-vs-measured tables from every valid result checkpoint."""
    from repro.experiments.runner import ExperimentResult
    from repro.runtime.checkpoint import CheckpointStore

    store = CheckpointStore(run_dir)
    lines: List[str] = []
    for experiment_id in store.completed_ids():
        try:
            outcome = store.load_outcome(experiment_id)
        except Exception:  # noqa: BLE001 - a bad checkpoint costs a section
            continue
        result = outcome.result
        if not isinstance(result, ExperimentResult):
            continue
        lines.append(f"### {experiment_id}: {result.title}")
        lines.append("")
        meta = [f"status **{outcome.status}**", f"{outcome.attempts} attempt(s)"]
        if outcome.elapsed_seconds:
            meta.append(f"{_format_seconds(outcome.elapsed_seconds)} elapsed")
        lines.append(", ".join(meta))
        lines.append("")
        if result.comparisons:
            lines.extend(
                _md_table(
                    ["quantity", "paper", "measured", "unit", "ratio", "note"],
                    [comp.row() for comp in result.comparisons],
                )
            )
            lines.append("")
        if result.curves:
            rows = []
            for curve in result.curves:
                rates = list(curve.miss_rates)
                rows.append(
                    [
                        curve.label or curve.metric,
                        len(curve.capacities),
                        f"{min(rates):.4g}" if rates else "-",
                        f"{max(rates):.4g}" if rates else "-",
                    ]
                )
            lines.extend(
                _md_table(["curve", "points", "min miss rate", "max miss rate"], rows)
            )
            lines.append("")
        for note in result.notes:
            lines.append(f"> note: {note}")
        if result.notes:
            lines.append("")
    return lines


def _metrics_sections(run_dir: Path) -> List[str]:
    snapshot = load_metrics_snapshot(run_dir)
    if snapshot is None:
        return ["_No readable `metrics.json` (campaign ran without obs?)._", ""]
    campaign = snapshot.get("campaign")
    lines: List[str] = []
    if isinstance(campaign, dict):
        counters = campaign.get("counters")
        if isinstance(counters, dict) and counters:
            lines.append("#### Counters")
            lines.append("")
            lines.extend(
                _md_table(
                    ["counter", "value"],
                    [[name, counters[name]] for name in sorted(counters)],
                )
            )
            lines.append("")
        gauges = campaign.get("gauges")
        if isinstance(gauges, dict) and gauges:
            lines.append("#### Gauges")
            lines.append("")
            lines.extend(
                _md_table(
                    ["gauge", "value"],
                    [[name, gauges[name]] for name in sorted(gauges)],
                )
            )
            lines.append("")
        histograms = campaign.get("histograms")
        if isinstance(histograms, dict) and histograms:
            rows = []
            for name in sorted(histograms):
                hist = histograms[name]
                if not isinstance(hist, dict):
                    continue
                count = hist.get("count", 0)
                total = hist.get("sum", 0.0)
                mean = (
                    f"{float(total) / float(count):.4g}"
                    if isinstance(count, (int, float)) and count
                    else "-"
                )
                rows.append([name, count, f"{float(total):.4g}", mean])
            lines.append("#### Histograms")
            lines.append("")
            lines.extend(_md_table(["histogram", "count", "sum", "mean"], rows))
            lines.append("")
    attempts = snapshot.get("attempts")
    if isinstance(attempts, dict) and attempts:
        rows = []
        for uid in sorted(attempts):
            entry = attempts[uid]
            if not isinstance(entry, dict):
                continue
            rss = entry.get("rss_peak_kb")
            rows.append(
                [
                    uid,
                    f"{int(rss):,}" if isinstance(rss, (int, float)) else "-",
                    entry.get("spans", "-"),
                ]
            )
        lines.append("#### Per-attempt telemetry")
        lines.append("")
        lines.extend(_md_table(["attempt uid", "rss peak (KiB)", "spans"], rows))
        lines.append("")
    return lines or ["_metrics.json holds no samples._", ""]


def _whole_run_knee_line(phases: List[object]) -> Optional[str]:
    """Knees of the summed (end-of-run) curve, for contrast with phases."""
    import numpy as np

    from repro.core.curves import MissRateCurve
    from repro.core.knee import find_knees
    from repro.units import format_size

    sizes: Optional[List[int]] = None
    total = None
    counted = 0
    for phase in phases:
        if phase.cache_sizes is None or phase.misses is None:
            continue
        if sizes is None:
            sizes = phase.cache_sizes
            total = np.zeros(len(sizes), dtype=np.int64)
        if phase.cache_sizes == sizes:
            total = total + phase.misses
            counted += phase.counted
    if sizes is None or not counted:
        return None
    curve = MissRateCurve(
        capacities=np.asarray(sizes, dtype=np.int64),
        miss_rates=total.astype(np.float64) / float(counted),
        label="whole run",
    )
    knees = find_knees(curve, rel_threshold=0.25)
    if not knees:
        return "End-of-run curve shows no knee at the default threshold."
    return (
        "End-of-run knee(s): "
        + ", ".join(format_size(int(k.capacity_bytes)) for k in knees)
        + " — the single estimate the per-phase rows above average over."
    )


def _timeline_groups(rows: List[Dict[str, object]]):
    """``(label, latest-attempt rows)`` per experiment found in rows."""
    from repro.obs.timeline import latest_attempt_rows

    experiment_ids = sorted(
        {str(r["experiment_id"]) for r in rows if r.get("experiment_id")}
    )
    if experiment_ids:
        return [
            (eid, latest_attempt_rows(rows, experiment_id=eid))
            for eid in experiment_ids
        ]
    return [(None, latest_attempt_rows(rows))]


def _working_set_sections(run_dir: Path) -> List[str]:
    """Per-phase knee tables from ``timeline.jsonl`` (tolerant)."""
    try:
        from repro.obs.timeline import TIMELINE_FILENAME, TIMELINE_MAGIC, detect_phases
        from repro.runtime.records import scan as scan_log
        from repro.units import format_size

        scan = scan_log(run_dir / TIMELINE_FILENAME, TIMELINE_MAGIC)
        if not scan.records:
            return [
                "_No readable `timeline.jsonl` (campaign ran without obs?)._",
                "",
            ]
        lines: List[str] = []
        for experiment_id, group in _timeline_groups(scan.records):
            phases = detect_phases(group)
            if not phases:
                continue
            label = experiment_id or "(unlabelled rows)"
            lines.append(
                f"### {label}: {len(phases)} phase(s) over "
                f"{len(group)} chunk(s)"
            )
            lines.append("")
            table_rows = []
            for phase in phases:
                info = phase.to_dict()
                knees = info["knee_bytes"]
                table_rows.append(
                    [
                        phase.index,
                        phase.rows,
                        f"{phase.refs:,}",
                        format_size(info["ws_bytes"]) if info["ws_bytes"] else "-",
                        ", ".join(format_size(k) for k in knees) or "-",
                        (
                            f"{info['miss_rate']:.4g}"
                            if info["miss_rate"] is not None
                            else "-"
                        ),
                    ]
                )
            lines.extend(
                _md_table(
                    [
                        "phase",
                        "chunks",
                        "refs",
                        "ws estimate",
                        "knee(s)",
                        "miss rate",
                    ],
                    table_rows,
                )
            )
            lines.append("")
            contrast = _whole_run_knee_line(phases)
            if contrast is not None:
                lines.append(contrast)
                lines.append("")
        if scan.damaged:
            lines.append(
                f"> {len(scan.damaged)} damaged timeline line(s) skipped."
            )
            lines.append("")
        if scan.torn_tail:
            lines.append(
                "> timeline ends in a torn tail (writer interrupted mid-append)."
            )
            lines.append("")
        return lines or ["_Timeline rows carry no phase signal._", ""]
    except Exception:  # noqa: BLE001 - a bad artifact costs a section
        return ["_Timeline unreadable; section skipped._", ""]


def _span_sections(run_dir: Path, top: int = 12) -> List[str]:
    from repro.obs.tracing import SPANS_FILENAME, read_spans

    spans = read_spans(run_dir / SPANS_FILENAME)
    if not spans:
        return ["_No readable `spans.jsonl`._", ""]
    slowest = sorted(spans, key=lambda s: s.dur_s, reverse=True)[:top]
    rows = []
    for span in slowest:
        detail = ", ".join(
            f"{key}={value}" for key, value in sorted(span.attrs.items())
        )
        rows.append(
            [span.name, _format_seconds(span.dur_s), span.status, detail or "-"]
        )
    lines = [f"{len(spans)} span(s) recorded; slowest {len(slowest)}:", ""]
    lines.extend(_md_table(["span", "duration", "status", "attributes"], rows))
    lines.append("")
    return lines


def render_report(
    run_dir: Union[str, Path],
    status: Optional[CampaignStatus] = None,
    now: Optional[float] = None,
) -> str:
    """Render the campaign report for ``run_dir`` as markdown."""
    from repro.runtime.events import read_events

    run_dir = Path(run_dir)
    status = load_status(run_dir, now=now) if status is None else status
    counts = status.counts()
    now = time.time() if now is None else now

    lines: List[str] = [
        f"# Campaign report: `{status.run_dir}`",
        "",
        f"Generated {time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(now))}"
        f" — campaign state **{status.state}**.",
        "",
        "## Overview",
        "",
    ]
    lines.extend(
        _md_table(
            ["requested", "ok", "degraded", "failed", "in-doubt", "pending"],
            [
                [
                    len(status.requested),
                    counts["ok"],
                    counts["degraded"],
                    counts["failed"],
                    counts["in-doubt"],
                    counts["pending"],
                ]
            ],
        )
    )
    lines.append("")
    if status.refs_simulated is not None or status.refs_per_second is not None:
        bits = []
        if status.refs_simulated is not None:
            bits.append(f"{status.refs_simulated:,} references simulated")
        if status.refs_per_second is not None:
            bits.append(f"last hot-loop rate {status.refs_per_second:,.0f} refs/s")
        lines.append("Throughput: " + ", ".join(bits) + ".")
        lines.append("")
    if status.kernels:
        for kind in sorted(status.kernels):
            chunks = status.kernels[kind]["chunks"]
            lines.append(f"Kernel `{kind}`: **vector** tier — {chunks} chunk(s).")
        lines.append("")
    if status.trace_id:
        lines.append(f"Trace id: `{status.trace_id}`.")
        lines.append("")

    # -- timings -------------------------------------------------------
    lines.append("## Experiment timings")
    lines.append("")
    rows = []
    for experiment_id in sorted(status.experiments):
        entry = status.experiments[experiment_id]
        rows.append(
            [
                experiment_id,
                entry.state + (" (resumed)" if entry.resumed else ""),
                entry.attempts,
                entry.retries,
                _format_seconds(entry.elapsed_seconds(now)),
                entry.last_failure or "-",
            ]
        )
    lines.extend(
        _md_table(
            ["experiment", "state", "attempts", "retries", "elapsed", "last failure"],
            rows,
        )
        or ["_No experiments recorded._"]
    )
    lines.append("")

    # -- retries / faults / validation ---------------------------------
    lines.append("## Retries, faults, and validation")
    lines.append("")
    events = read_events(run_dir / "events.jsonl")
    tallies = _event_tallies(events)
    failed_attempts = sum(
        entry.failed_attempts for entry in status.experiments.values()
    )
    kills = sum(entry.worker_kills for entry in status.experiments.values())
    lines.extend(
        _md_table(
            ["signal", "count"],
            [
                ["retries", tallies.get("retry", 0)],
                ["failed attempts", failed_attempts],
                ["worker kills", kills],
                ["checkpoint write retries", tallies.get("checkpoint-retry", 0)],
                ["validated results", tallies.get("validated", 0)],
                ["resumed experiments", tallies.get("resume", 0)],
                ["obs snapshot failures", tallies.get("obs-snapshot-failed", 0)],
            ],
        )
    )
    lines.append("")
    categories: Dict[str, int] = {}
    for entry in status.experiments.values():
        if entry.last_failure:
            categories[entry.last_failure] = categories.get(entry.last_failure, 0) + 1
    if categories:
        lines.extend(
            _md_table(
                ["last failure category", "experiments"],
                [[name, categories[name]] for name in sorted(categories)],
            )
        )
        lines.append("")

    # -- results -------------------------------------------------------
    lines.append("## Results")
    lines.append("")
    result_lines = _result_sections(run_dir)
    lines.extend(result_lines or ["_No valid result checkpoints._", ""])

    # -- temporal working sets -----------------------------------------
    lines.append("## Temporal working sets")
    lines.append("")
    lines.extend(_working_set_sections(run_dir))

    # -- metrics / spans -----------------------------------------------
    lines.append("## Metrics rollup")
    lines.append("")
    lines.extend(_metrics_sections(run_dir))
    lines.append("## Spans")
    lines.append("")
    lines.extend(_span_sections(run_dir))

    for note in status.notes:
        lines.append(f"> {note}")
    if status.notes:
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _sparkline_svg(
    values: List[float], width: int = 280, height: int = 40, color: str = "#2a6fdb"
) -> str:
    """A dependency-free inline-SVG sparkline (empty below 2 points)."""
    points = [float(v) for v in values if isinstance(v, (int, float))]
    if len(points) < 2:
        return ""
    lo, hi = min(points), max(points)
    span = (hi - lo) or 1.0
    step = width / (len(points) - 1)
    coords = " ".join(
        f"{i * step:.1f},{height - 2 - (height - 4) * (v - lo) / span:.1f}"
        for i, v in enumerate(points)
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        'xmlns="http://www.w3.org/2000/svg" role="img">'
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{coords}"/></svg>'
    )


def _row_chunk_miss_rate(row: Dict[str, object]) -> Optional[float]:
    """Per-chunk miss rate: mid-ladder capacity for stack-distance rows,
    the simulated capacity for explicit-cache rows."""
    counted = row.get("counted")
    if not isinstance(counted, (int, float)) or counted <= 0:
        return None
    misses = row.get("misses")
    if isinstance(misses, list) and misses:
        return float(misses[len(misses) // 2]) / float(counted)
    total = row.get("misses_total")
    if isinstance(total, (int, float)):
        return float(total) / float(counted)
    return None


def _timeline_html_section(run_dir: Union[str, Path]) -> str:
    """Raw-HTML sparkline section (not escaped with the markdown body)."""
    try:
        from repro.obs.timeline import TIMELINE_FILENAME, read_timeline

        rows = read_timeline(Path(run_dir) / TIMELINE_FILENAME)
        if not rows:
            return ""
        parts: List[str] = []
        for experiment_id, group in _timeline_groups(rows):
            ws = [
                r["ws_blocks"] * r.get("block_size", 8)
                for r in group
                if isinstance(r.get("ws_blocks"), int)
            ]
            rates = [
                rate
                for rate in (_row_chunk_miss_rate(r) for r in group)
                if rate is not None
            ]
            label = _html.escape(str(experiment_id or "(unlabelled rows)"))
            charts: List[str] = []
            ws_svg = _sparkline_svg(ws)
            if ws_svg:
                charts.append(
                    f"<div>working set per chunk (bytes): {ws_svg}</div>"
                )
            rate_svg = _sparkline_svg(rates, color="#c4453c")
            if rate_svg:
                charts.append(
                    "<div>miss rate per chunk (mid-ladder capacity): "
                    f"{rate_svg}</div>"
                )
            if charts:
                parts.append(f"<h3>{label}</h3>" + "".join(charts))
        if not parts:
            return ""
        return (
            '<section class="sparklines">\n<h2>Timeline sparklines</h2>\n'
            + "\n".join(parts)
            + "\n</section>"
        )
    except Exception:  # noqa: BLE001 - a bad artifact costs a section
        return ""


def render_report_html(
    run_dir: Union[str, Path],
    status: Optional[CampaignStatus] = None,
    now: Optional[float] = None,
) -> str:
    """The same report wrapped as a static self-contained HTML page.

    The markdown body is escaped wholesale; the timeline sparklines are
    appended as a separate *raw* section so the inline SVG renders.
    """
    markdown = render_report(run_dir, status=status, now=now)
    title = _html.escape(f"Campaign report: {run_dir}")
    body = _html.escape(markdown)
    sparklines = _timeline_html_section(run_dir)
    return (
        "<!DOCTYPE html>\n"
        "<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>{title}</title>\n"
        "<style>body{font-family:monospace;max-width:72rem;margin:2rem auto;"
        "white-space:pre-wrap;}</style>\n"
        "</head>\n<body>\n"
        f"{body}\n"
        + (f"{sparklines}\n" if sparklines else "")
        + "</body>\n</html>\n"
    )


def write_report(
    run_dir: Union[str, Path],
    output: Optional[Union[str, Path]] = None,
    html: bool = False,
) -> str:
    """Render (and optionally write) the report; returns the text."""
    text = (
        render_report_html(run_dir) if html else render_report(run_dir)
    )
    if output is not None:
        Path(output).write_text(text, encoding="utf-8")
    return text


def report_to_json(run_dir: Union[str, Path]) -> str:
    """Machine-readable form: the status dict plus event tallies."""
    from repro.runtime.events import read_events

    run_dir = Path(run_dir)
    status = load_status(run_dir)
    payload = status.to_dict()
    payload["event_tallies"] = _event_tallies(
        read_events(run_dir / "events.jsonl")
    )
    return json.dumps(payload, indent=1, sort_keys=True)
