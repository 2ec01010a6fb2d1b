"""Artifact validation for campaign run directories.

A campaign run directory is the repository's unit of reproducibility:
``manifest.json`` records what was asked for, ``results/`` and
``failures/`` hold checksummed outcome envelopes, ``summary.json``
records how the run ended, ``journal.wal`` is the lifecycle log, and
any ``.npz`` files are saved traces.  :func:`validate_run_dir` walks
all of it and returns a :class:`~repro.validate.report.ValidationReport`
with one typed finding per defect, each corruption class under its own
code:

==========================  =============================================
finding code                defect class
==========================  =============================================
``checkpoint-corrupt``      envelope fails its SHA-256 / JSON decode
``checkpoint-stale``        result for an experiment the manifest never
                            requested (left over from an older campaign)
``checkpoint-id-mismatch``  filename disagrees with the payload id
``outcome-schema``          outcome payload violates the schema
``manifest-schema``         manifest payload violates the schema
``summary-schema``          summary payload violates the schema
``summary-status-mismatch`` summary's per-experiment status disagrees
                            with the checkpoint on disk
``summary-dangling-id``     summary lists a completion with no checkpoint
``trace-unreadable``        trace archive truncated / not a zip at all
``trace-corrupt``           trace decodes but fails checksum or fields
``trace-header-mismatch``   metadata header counts disagree with arrays
``journal-torn``            torn record at the journal's tail
                            (warning: the expected crash signature)
``journal-corrupt``         damaged record other than the torn tail, or
                            a supervisor generation (``token``) that
                            goes backwards
``journal-schema``          journal record violates the record schema
``journal-seq``             journal sequence numbers not increasing
``journal-missing``         checkpoints exist but no journal (warning:
                            a pre-journal run directory)
``spans-torn``              damaged ``spans.jsonl`` record (torn tail
                            warns)
``spans-schema``            span record violates the span schema
``timeline-torn``           damaged ``timeline.jsonl`` record (torn
                            tail warns)
``timeline-schema``         timeline row violates the row schema, or
                            its miss vector disagrees with its
                            capacity ladder
``metrics-schema``          ``metrics.json`` undecodable or violates
                            the snapshot schema
``metrics-dangling-id``     metrics snapshot records telemetry for an
                            attempt uid the journal never saw
``result-*`` / ``curve-*``  invariant-oracle findings on stored results
==========================  =============================================

The three append-only logs (journal, spans, timeline) share one
frame and one damage rule (:mod:`repro.runtime.records`): a
torn tail — one damaged line after the last intact record — is the
crash signature and only warns; any other damage is an error.

Everything is read-only; validation never mutates a run directory.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.mem.tracefile import TraceFileCorruptError, load_metadata, load_trace
from repro.obs.timeline import TIMELINE_MAGIC, row_ladder
from repro.obs.tracing import SPANS_MAGIC
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.errors import CheckpointCorruptError
from repro.runtime.journal import JOURNAL_MAGIC, read_journal
from repro.runtime.records import scan
from repro.validate.oracles import validate_result
from repro.validate.report import SEVERITY_WARNING, Finding, ValidationReport
from repro.validate.schemas import check_schema, schema_for


def _with_path(report: ValidationReport, other: ValidationReport, path: str) -> None:
    """Merge ``other``'s findings into ``report``, stamping ``path``."""
    report.tick(other.checks_run)
    for finding in other.findings:
        report.findings.append(dataclasses.replace(finding, path=path))


def _schema_findings(
    report: ValidationReport,
    payload: object,
    kind: str,
    code: str,
    path: str,
) -> bool:
    """Schema-check ``payload``; returns True when it conforms."""
    problems = check_schema(payload, schema_for(kind))
    report.tick()
    for problem in problems:
        report.add(code, problem, path=path)
    return not problems


def _read_envelope(
    store: CheckpointStore, report: ValidationReport, path: Path
) -> Optional[Dict[str, object]]:
    """Read one checkpoint envelope, recording corruption findings."""
    rel = str(path.relative_to(store.run_dir))
    try:
        payload = store._read_envelope(path)
    except CheckpointCorruptError as exc:
        report.add("checkpoint-corrupt", str(exc), path=rel)
        return None
    finally:
        report.tick()
    return payload


@dataclasses.dataclass(frozen=True)
class _LogKind:
    """How :func:`_validate_log` audits one framed log type.

    ``monotonic`` lists ``(field, code, strict)``: integer fields that
    must strictly increase (``strict``) or never decrease from record to
    record.  ``invariant`` returns the problems a schema cannot express;
    they are reported under ``schema_code``.
    """

    subject: str
    magic: str
    damage_code: str  # damage other than a torn tail: an error
    torn_code: str  # the torn tail: a warning
    schema: str
    schema_code: str
    monotonic: Tuple[Tuple[str, str, bool], ...] = ()
    invariant: Callable[[Dict[str, object]], List[str]] = lambda record: []


def _validate_log(path: Union[str, Path], kind: _LogKind) -> ValidationReport:
    """Audit one framed log under the records module's damage rule."""
    path = Path(path)
    report = ValidationReport(subject=f"{kind.subject} {path.name}")
    if not path.is_file():
        return report
    found = scan(path, kind.magic)
    report.tick()
    for lineno, reason in found.damaged:
        report.add(
            kind.damage_code,
            f"line {lineno} is damaged before the tail ({reason}); a "
            "single-writer append discipline cannot produce this",
            path=path.name,
        )
    if found.torn_tail:
        report.add(
            kind.torn_code,
            "torn record at the tail (crash signature: tolerated; the "
            "next appender truncates it)",
            path=path.name,
            severity=SEVERITY_WARNING,
        )
    last: Dict[str, int] = {}
    for index, record in enumerate(found.records, start=1):
        report.tick()
        problems = [
            (kind.schema_code, problem)
            for problem in check_schema(record, schema_for(kind.schema))
            + kind.invariant(record)
        ]
        for name, code, strict in kind.monotonic:
            value, prior = record.get(name), last.get(name, 0)
            if not isinstance(value, int):
                continue
            if value < prior or (strict and value == prior):
                problems.append(
                    (code, f"{name} {value} does not increase past {prior}")
                    if strict
                    else (code, f"{name} went backwards ({prior} -> {value})")
                )
            last[name] = max(prior, value)
        for code, problem in problems:
            report.add(code, f"record {index}: {problem}", path=path.name)
    return report


def _nan_duration(record: Dict[str, object]) -> List[str]:
    dur = record.get("dur_s")
    # NaN sneaks past the schema's "number".
    return ["dur_s is NaN"] if isinstance(dur, float) and dur != dur else []


def _ladder_mismatch(record: Dict[str, object]) -> List[str]:
    sizes, misses = row_ladder(record), record.get("misses")
    if sizes is not None and isinstance(misses, list):
        if len(sizes) != len(misses):
            return [
                f"{len(misses)} miss slot(s) for {len(sizes)} capacity "
                "ladder entr(ies)"
            ]
    return []


_JOURNAL = _LogKind(
    subject="journal", magic=JOURNAL_MAGIC,
    damage_code="journal-corrupt", torn_code="journal-torn",
    schema="journal-record", schema_code="journal-schema",
    # Supervisor generations never go backwards: each is one more than
    # the highest already in the journal.
    monotonic=(("seq", "journal-seq", True), ("token", "journal-corrupt", False)),
)
_SPANS = _LogKind(
    subject="spans", magic=SPANS_MAGIC,
    damage_code="spans-torn", torn_code="spans-torn",
    schema="span", schema_code="spans-schema",
    invariant=_nan_duration,
)
_TIMELINE = _LogKind(
    subject="timeline", magic=TIMELINE_MAGIC,
    damage_code="timeline-torn", torn_code="timeline-torn",
    schema="timeline-row", schema_code="timeline-schema",
    invariant=_ladder_mismatch,
)


def validate_journal_file(path: Union[str, Path]) -> ValidationReport:
    """Audit the write-ahead journal (``journal.wal``): codes
    ``journal-torn``, ``journal-corrupt`` (including a generation that
    goes backwards), ``journal-schema`` and ``journal-seq``."""
    return _validate_log(path, _JOURNAL)


def validate_spans_file(path: Union[str, Path]) -> ValidationReport:
    """Audit a ``spans.jsonl`` log (codes ``spans-torn``,
    ``spans-schema``, including a NaN ``dur_s``)."""
    return _validate_log(path, _SPANS)


def validate_timeline_file(path: Union[str, Path]) -> ValidationReport:
    """Audit a ``timeline.jsonl`` log (codes ``timeline-torn``,
    ``timeline-schema``, including a miss vector whose length differs
    from its capacity ladder: the row's ``cache_sizes`` in version 1,
    :data:`~repro.obs.timeline.STACKDIST_LADDER` from version 2 on)."""
    return _validate_log(path, _TIMELINE)


def validate_trace_file(path: Union[str, Path]) -> ValidationReport:
    """Validate one saved ``.npz`` trace archive.

    Distinguishes structural unreadability (truncation — the archive is
    not even a zip) from decodable-but-corrupt contents (checksum or
    field failures), and cross-checks the metadata header's reference
    counts against the arrays actually stored.
    """
    path = Path(path)
    report = ValidationReport(subject=f"trace {path.name}")
    name = path.name
    try:
        trace = load_trace(path)
    except TraceFileCorruptError as exc:
        code = (
            "trace-unreadable"
            if "not a readable archive" in str(exc)
            else "trace-corrupt"
        )
        report.add(code, str(exc), path=name)
        return report
    except ValueError as exc:  # unsupported (but intact) format version
        report.add("trace-version", str(exc), path=name)
        return report
    finally:
        report.tick()
    try:
        metadata = load_metadata(path)
    except TraceFileCorruptError as exc:
        report.add("trace-corrupt", str(exc), path=name)
        return report
    finally:
        report.tick()
    header = {
        k: metadata[k] for k in ("refs", "reads", "writes") if k in metadata
    }
    if header:
        for problem in check_schema(metadata, schema_for("trace-header")):
            report.add("trace-header-schema", problem, path=name)
        reads = int((trace.kinds == 0).sum())
        writes = len(trace) - reads
        actual = {"refs": len(trace), "reads": reads, "writes": writes}
        report.tick()
        for key, value in header.items():
            if int(value) != actual[key]:
                report.add(
                    "trace-header-mismatch",
                    f"metadata claims {key}={int(value)} but the arrays "
                    f"hold {actual[key]}",
                    path=name,
                )
    return report


def validate_metrics_file(
    path: Union[str, Path],
    known_uids: Optional[List[str]] = None,
) -> ValidationReport:
    """Validate a campaign ``metrics.json`` snapshot.

    The snapshot is written atomically (tmp + rename) so partial JSON
    indicts the storage and is an error (``metrics-schema``), as is any
    schema violation or a histogram whose ``counts`` length is not
    ``len(buckets) + 1`` (the +Inf overflow slot).  When ``known_uids``
    is given, every per-attempt telemetry key must be an attempt uid
    the journal actually issued (``metrics-dangling-id``)
    — telemetry for an attempt nobody started means the snapshot and
    the run directory disagree about history.
    """
    path = Path(path)
    report = ValidationReport(subject=f"metrics {path.name}")
    if not path.is_file():
        return report
    report.tick()
    try:
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(snapshot, dict):
            raise ValueError("metrics snapshot is not a JSON object")
    except (json.JSONDecodeError, ValueError, OSError) as exc:
        report.add("metrics-schema", f"undecodable: {exc}", path=path.name)
        return report
    for problem in check_schema(snapshot, schema_for("metrics")):
        report.add("metrics-schema", problem, path=path.name)
    campaign = snapshot.get("campaign")
    histograms = (
        campaign.get("histograms") if isinstance(campaign, dict) else None
    )
    if isinstance(histograms, dict):
        for name, hist in sorted(histograms.items()):
            if not isinstance(hist, dict):
                continue
            buckets = hist.get("buckets")
            counts = hist.get("counts")
            report.tick()
            if (
                isinstance(buckets, list)
                and isinstance(counts, list)
                and len(counts) != len(buckets) + 1
            ):
                report.add(
                    "metrics-schema",
                    f"histogram {name!r} has {len(counts)} count slot(s) "
                    f"for {len(buckets)} bucket bound(s); expected "
                    f"{len(buckets) + 1} (+Inf overflow)",
                    path=path.name,
                )
            elif (
                isinstance(counts, list)
                and isinstance(hist.get("count"), int)
                and all(isinstance(c, int) for c in counts)
                and sum(counts) != hist["count"]
            ):
                report.add(
                    "metrics-schema",
                    f"histogram {name!r} bucket counts sum to "
                    f"{sum(counts)} but count says {hist['count']}",
                    path=path.name,
                )
    attempts = snapshot.get("attempts")
    if known_uids is not None and isinstance(attempts, dict):
        known = set(known_uids)
        for uid in sorted(attempts):
            report.tick()
            if uid not in known:
                report.add(
                    "metrics-dangling-id",
                    f"per-attempt telemetry for uid {uid!r} which the "
                    "journal never started",
                    path=path.name,
                )
    return report


def validate_run_dir(
    run_dir: Union[str, Path], deep: bool = True
) -> ValidationReport:
    """Validate every artifact in a campaign run directory.

    Args:
        run_dir: The directory passed to ``--run-dir`` / ``--resume``.
        deep: Also run the result invariant oracles over every stored
            :class:`~repro.experiments.runner.ExperimentResult` (cheap;
            disable only for very large stores).

    Returns:
        A report whose ``ok`` is True iff the run directory is sound.
    """
    run_dir = Path(run_dir)
    report = ValidationReport(subject=f"run-dir {run_dir}")
    if not run_dir.is_dir():
        report.add("run-dir-missing", f"{run_dir} is not a directory")
        return report
    store = CheckpointStore(run_dir)

    # -- manifest ----------------------------------------------------
    requested: Optional[List[str]] = None
    manifest_path = run_dir / "manifest.json"
    if manifest_path.is_file():
        manifest = _read_envelope(store, report, manifest_path)
        if manifest is not None and _schema_findings(
            report, manifest, "manifest", "manifest-schema", "manifest.json"
        ):
            requested = [str(x) for x in manifest["experiments"]]
    else:
        report.add(
            "manifest-missing",
            "run directory has no manifest.json",
            severity=SEVERITY_WARNING,
        )

    # -- results / failures ------------------------------------------
    statuses_on_disk: Dict[str, str] = {}
    for directory, expected_statuses in (
        (store.results_dir, ("ok", "degraded")),
        (store.failures_dir, ("failed",)),
    ):
        if not directory.is_dir():
            continue
        for path in sorted(directory.glob("*.json")):
            rel = str(path.relative_to(run_dir))
            payload = _read_envelope(store, report, path)
            if payload is None:
                continue
            if not _schema_findings(
                report, payload, "outcome", "outcome-schema", rel
            ):
                continue
            experiment_id = str(payload["experiment_id"])
            status = str(payload["status"])
            if experiment_id != path.stem:
                report.add(
                    "checkpoint-id-mismatch",
                    f"file is named {path.stem!r} but records experiment "
                    f"{experiment_id!r}",
                    path=rel,
                )
            if status not in expected_statuses:
                report.add(
                    "outcome-status-misfiled",
                    f"status {status!r} does not belong under "
                    f"{directory.name}/",
                    path=rel,
                )
            if directory == store.results_dir:
                statuses_on_disk[experiment_id] = status
                if requested is not None and experiment_id not in requested:
                    report.add(
                        "checkpoint-stale",
                        f"result for {experiment_id!r} which the manifest "
                        "never requested (stale leftover from an earlier "
                        "campaign?)",
                        path=rel,
                    )
            report.tick()
            if deep and payload.get("result") is not None:
                from repro.experiments.runner import ExperimentResult

                try:
                    result = ExperimentResult.from_dict(payload["result"])
                except (KeyError, TypeError, ValueError) as exc:
                    report.add(
                        "result-undecodable",
                        f"stored result cannot be rebuilt: {exc}",
                        path=rel,
                    )
                else:
                    _with_path(report, validate_result(result), rel)

    # -- summary ------------------------------------------------------
    if store.summary_path.is_file():
        summary = _read_envelope(store, report, store.summary_path)
        if summary is not None and _schema_findings(
            report, summary, "summary", "summary-schema", "summary.json"
        ):
            statuses = summary.get("statuses", {})
            for experiment_id, status in statuses.items():
                if str(status) == "failed":
                    continue
                report.tick()
                disk = statuses_on_disk.get(str(experiment_id))
                if disk is None:
                    report.add(
                        "summary-dangling-id",
                        f"summary says {experiment_id!r} completed with "
                        f"status {status!r} but results/ has no valid "
                        "checkpoint for it",
                        path="summary.json",
                    )
                elif disk != str(status):
                    report.add(
                        "summary-status-mismatch",
                        f"summary records {experiment_id!r} as {status!r} "
                        f"but its checkpoint says {disk!r}",
                        path="summary.json",
                    )
    else:
        report.add(
            "summary-missing",
            "run directory has no summary.json (crashed before the first "
            "flush, or not a campaign directory)",
            severity=SEVERITY_WARNING,
        )

    # -- journal ------------------------------------------------------
    journal_path = run_dir / "journal.wal"
    report.extend(validate_journal_file(journal_path))
    if not journal_path.is_file() and statuses_on_disk:
        report.add(
            "journal-missing",
            "checkpoints exist but there is no journal.wal (pre-journal "
            "run directory; resume falls back to checkpoint presence)",
            severity=SEVERITY_WARNING,
        )

    # -- observability artifacts --------------------------------------
    report.extend(validate_spans_file(run_dir / "spans.jsonl"))
    report.extend(validate_timeline_file(run_dir / "timeline.jsonl"))
    known_uids = [
        record["attempt_uid"]
        for record in read_journal(journal_path).records
        if isinstance(record.get("attempt_uid"), str)
    ]
    report.extend(
        validate_metrics_file(run_dir / "metrics.json", known_uids=known_uids)
    )

    # -- traces --------------------------------------------------------
    # ``stream/`` holds the trace shards and simulator snapshots of
    # earlier versions' out-of-core mode.  Nothing reads them now, so
    # they are neither audited nor taken for saved traces.
    stream_root = run_dir / "stream"
    for path in sorted(run_dir.rglob("*.npz")):
        if stream_root in path.parents:
            continue
        trace_report = validate_trace_file(path)
        report.tick(trace_report.checks_run)
        rel = str(path.relative_to(run_dir))
        for finding in trace_report.findings:
            report.findings.append(dataclasses.replace(finding, path=rel))

    return report
