"""Artifact validation for campaign run directories.

A campaign run directory is the repository's unit of reproducibility:
``manifest.json`` records what was asked for, ``results/`` and
``failures/`` hold checksummed outcome envelopes, ``summary.json``
records how the run ended, ``events.jsonl`` is the forensic log, and
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
``events-torn``             undecodable event line *before* the end of
                            the log (a crash can tear only the last line)
``events-seq``              sequence numbers not strictly increasing
``event-schema``            event record violates the schema
``trace-unreadable``        trace archive truncated / not a zip at all
``trace-corrupt``           trace decodes but fails checksum or fields
``trace-header-mismatch``   metadata header counts disagree with arrays
``trace-manifest-mismatch`` sharded trace directory's manifest missing,
                            undecodable, failing its self-checksum, or
                            disagreeing with the shards on disk
                            (totals, indexes, unexpected extras)
``trace-shard-missing``     manifest lists a shard file that is absent
``trace-shard-corrupt``     shard truncated, bit-flipped, failing its
                            SHA-256/CRC, or disagreeing with its
                            manifest entry
``trace-shard-incomplete``  ``.trd.tmp`` staging directory left by an
                            interrupted trace build (warning: the
                            expected crash signature; safe to delete)
``sim-checkpoint-corrupt``  damaged mid-simulation snapshot (warning:
                            resume safely restarts from shard zero)
``journal-torn``            torn record(s) at the journal's tail
                            (warning: the expected crash signature)
``journal-corrupt``         damaged record *before* the tail, or a
                            fencing token that goes backwards
``journal-schema``          journal record violates the record schema
``journal-seq``             journal sequence numbers not increasing
``journal-missing``         checkpoints exist but no journal (warning:
                            a pre-journal run directory)
``dispatch-torn``           torn record(s) at the dispatch WAL's tail
                            (warning: the expected crash signature)
``dispatch-corrupt``        damaged dispatch record before the tail,
                            or a closure (complete/requeue/fence) for
                            an assignment the WAL never opened
``dispatch-schema``         dispatch WAL record violates the journal
                            record schema
``dispatch-orphan-assignment``  an assignment was dispatched but its
                            attempt uid never completed, requeued, or
                            fenced (warning: in-doubt work; resume
                            re-dispatches the attempt)
``dispatch-double-complete``  more than one ``dispatch-complete`` for
                            one attempt uid — the exactly-once
                            recording invariant is broken
``lease-stale``             a supervisor lease file left behind by a
                            dead owner (warning: reclaimed on resume)
``lease-schema``            lease file undecodable / violates schema
``spans-torn``              undecodable span line *before* the end of
                            ``spans.jsonl`` (only the tail may tear)
``spans-schema``            span record violates the span schema
``timeline-torn``           undecodable ``timeline.jsonl`` frame before
                            the tail (error), or a torn trailing append
                            (warning: the expected crash signature)
``timeline-schema``         timeline row violates the row schema, or
                            its miss vector disagrees with its
                            capacity ladder
``archive-corrupt``         ``perf-archive.jsonl`` frame damaged (torn
                            tail warns), row violating the row schema,
                            or an unattributed row
``metrics-schema``          ``metrics.json`` undecodable or violates
                            the snapshot schema
``metrics-dangling-id``     metrics snapshot records telemetry for an
                            attempt uid the journal/events never saw
``cache-entry-corrupt``     cache entry envelope fails its checksum,
                            format, or the cache-entry schema
``cache-key-mismatch``      entry's filename, stored key, and the key
                            recomputed from its (app, params, code)
                            triple do not all agree
``cache-dangling-entry``    cache manifest indexes a key with no valid
                            entry on disk
``cache-unindexed-entry``   valid entry the manifest never indexed
                            (warning: the manifest is an index, the
                            entries are the truth)
``cache-quarantined``       quarantined entries present (warning:
                            forensic leftovers of served corruption)
``result-*`` / ``curve-*``  invariant-oracle findings on stored results
==========================  =============================================

:func:`validate_cache_dir` audits a content-addressed result cache
(:mod:`repro.service.cache`), and :func:`validate_service_root` audits
a whole multi-tenant service root — every per-campaign run directory,
the service WAL, the service lease, and the shared cache.

Everything is read-only; validation never mutates a run directory.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.mem.tracefile import TraceFileCorruptError, load_metadata, load_trace
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.errors import CheckpointCorruptError
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


def validate_events_file(path: Union[str, Path]) -> ValidationReport:
    """Validate an ``events.jsonl`` log line by line.

    Unlike :func:`repro.runtime.events.read_events` (which tolerantly
    skips undecodable lines for post-mortem use), this is the strict
    reader: a torn line anywhere but the very end of the file is an
    error, because the line-buffered single-writer discipline can only
    tear the final line.
    """
    path = Path(path)
    report = ValidationReport(subject=f"events {path.name}")
    if not path.is_file():
        return report
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    last_seq = 0
    for lineno, line in enumerate(lines, start=1):
        report.tick()
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
            if not isinstance(record, dict):
                raise ValueError("event line is not a JSON object")
        except (json.JSONDecodeError, ValueError) as exc:
            severity = "error" if lineno < len(lines) else SEVERITY_WARNING
            report.add(
                "events-torn",
                f"line {lineno} is not a JSON object ({exc})"
                + ("" if lineno < len(lines) else " [trailing line: tolerated]"),
                path=str(path.name),
                severity=severity,
            )
            continue
        for problem in check_schema(record, schema_for("event")):
            report.add(
                "event-schema", f"line {lineno}: {problem}", path=str(path.name)
            )
        seq = record.get("seq")
        if isinstance(seq, int):
            if seq <= last_seq:
                report.add(
                    "events-seq",
                    f"line {lineno}: seq {seq} does not increase past "
                    f"{last_seq}",
                    path=str(path.name),
                )
            last_seq = max(last_seq, seq)
    return report


def validate_journal_file(path: Union[str, Path]) -> ValidationReport:
    """Audit a write-ahead journal (``journal.wal``).

    Replays the CRC framing (:func:`repro.runtime.journal.read_journal`)
    and checks every intact record against the journal-record schema,
    sequence monotonicity, and fencing-token monotonicity.  A torn tail
    is a *warning* — it is the expected signature of a crashed
    supervisor, and recovery truncates it — while damage anywhere
    earlier (or a token that goes backwards) indicts the storage and is
    an error.
    """
    from repro.runtime.journal import read_journal

    path = Path(path)
    report = ValidationReport(subject=f"journal {path.name}")
    if not path.is_file():
        return report
    replay = read_journal(path)
    report.tick()
    for lineno, reason in replay.corrupt:
        report.add(
            "journal-corrupt",
            f"line {lineno} is damaged before the tail ({reason}); a "
            "single-writer append discipline cannot produce this",
            path=path.name,
        )
    if replay.torn_tail:
        report.add(
            "journal-torn",
            "torn record(s) at the tail (crash signature; recovery "
            "truncates this on the next resume)",
            path=path.name,
            severity=SEVERITY_WARNING,
        )
    last_seq = 0
    last_token = 0
    for index, record in enumerate(replay.records):
        report.tick()
        for problem in check_schema(record, schema_for("journal-record")):
            report.add(
                "journal-schema",
                f"record {index + 1}: {problem}",
                path=path.name,
            )
        seq = record.get("seq")
        if isinstance(seq, int):
            if seq <= last_seq:
                report.add(
                    "journal-seq",
                    f"record {index + 1}: seq {seq} does not increase "
                    f"past {last_seq}",
                    path=path.name,
                )
            last_seq = max(last_seq, seq)
        token = record.get("token")
        if isinstance(token, int):
            if token < last_token:
                report.add(
                    "journal-corrupt",
                    f"record {index + 1}: fencing token went backwards "
                    f"({last_token} -> {token}); tokens are monotonic by "
                    "protocol",
                    path=path.name,
                )
            last_token = max(last_token, token)
    return report


#: Dispatch WAL record types that *open* an assignment (a hedge is a
#: duplicate dispatch, so its record doubles as the opener) and the
#: types that *close* one.
_DISPATCH_OPENERS = ("dispatch-assign", "dispatch-hedge")
_DISPATCH_CLOSERS = (
    "dispatch-complete",
    "dispatch-requeue",
    "dispatch-fenced",
)


def validate_dispatch_file(path: Union[str, Path]) -> ValidationReport:
    """Audit a dispatch-fabric assignment WAL (``dispatch.wal``).

    Structural checks mirror :func:`validate_journal_file` (CRC
    framing, record schema, sequence monotonicity) under ``dispatch-*``
    codes, then the assignment state machine is replayed per
    ``attempt_uid``:

    - every closure (``dispatch-complete`` / ``dispatch-requeue`` /
      ``dispatch-fenced``) must reference an assignment the WAL opened
      (``dispatch-corrupt`` otherwise — tails tear, heads do not);
    - at most one ``dispatch-complete`` per attempt uid — more is
      ``dispatch-double-complete``, a broken exactly-once-recording
      invariant (the whole point of fencing);
    - an attempt uid that was assigned but never completed is
      ``dispatch-orphan-assignment``, a *warning*: it is the expected
      signature of a dispatcher that died mid-flight (resume simply
      re-dispatches), not of storage damage.  A hedge loser needs no
      closure record — its cancellation is silent by design — so only
      uids with *zero* completions are flagged.
    """
    from repro.runtime.journal import read_journal

    path = Path(path)
    report = ValidationReport(subject=f"dispatch {path.name}")
    if not path.is_file():
        return report
    replay = read_journal(path)
    report.tick()
    for lineno, reason in replay.corrupt:
        report.add(
            "dispatch-corrupt",
            f"line {lineno} is damaged before the tail ({reason}); a "
            "single-writer append discipline cannot produce this",
            path=path.name,
        )
    if replay.torn_tail:
        report.add(
            "dispatch-torn",
            "torn record(s) at the tail (crash signature; the dispatcher "
            "truncates this on the next resume)",
            path=path.name,
            severity=SEVERITY_WARNING,
        )
    last_seq = 0
    opened: Dict[str, str] = {}  # assignment_id -> attempt_uid
    completes: Dict[str, int] = {}  # attempt_uid -> dispatch-complete count
    assigned_uids: List[str] = []
    for index, record in enumerate(replay.records):
        report.tick()
        for problem in check_schema(record, schema_for("journal-record")):
            report.add(
                "dispatch-schema",
                f"record {index + 1}: {problem}",
                path=path.name,
            )
        seq = record.get("seq")
        if isinstance(seq, int):
            if seq <= last_seq:
                report.add(
                    "dispatch-corrupt",
                    f"record {index + 1}: seq {seq} does not increase "
                    f"past {last_seq}",
                    path=path.name,
                )
            last_seq = max(last_seq, seq)
        record_type = record.get("type")
        assignment_id = record.get("assignment_id")
        uid = record.get("attempt_uid")
        if not isinstance(assignment_id, str) or not isinstance(uid, str):
            continue
        if record_type in _DISPATCH_OPENERS:
            opened[assignment_id] = uid
            if uid not in assigned_uids:
                assigned_uids.append(uid)
        elif record_type in _DISPATCH_CLOSERS:
            if assignment_id not in opened:
                report.add(
                    "dispatch-corrupt",
                    f"record {index + 1}: {record_type} closes assignment "
                    f"{assignment_id} that was never opened by a "
                    "dispatch-assign/dispatch-hedge record (only the tail "
                    "of an append-only WAL can tear, never the head)",
                    path=path.name,
                )
            if record_type == "dispatch-complete":
                completes[uid] = completes.get(uid, 0) + 1
    for uid, count in sorted(completes.items()):
        if count > 1:
            report.add(
                "dispatch-double-complete",
                f"attempt {uid} recorded {count} dispatch-complete "
                "records; completion must be exactly-once (a stale or "
                "hedged duplicate slipped past the fence)",
                path=path.name,
            )
    for uid in assigned_uids:
        if completes.get(uid, 0) == 0:
            report.add(
                "dispatch-orphan-assignment",
                f"attempt {uid} was assigned but never completed "
                "(in-doubt dispatch; the crash signature of a dispatcher "
                "killed mid-flight — resume re-dispatches it)",
                path=path.name,
                severity=SEVERITY_WARNING,
            )
    return report


def validate_lease_file(path: Union[str, Path]) -> ValidationReport:
    """Audit a leftover supervisor lease (``supervisor.lease``).

    A run directory at rest should have no lease at all (supervisors
    remove theirs on exit).  One left by a dead or silent owner is a
    warning — the next supervisor reclaims it — and an undecodable or
    schema-violating one is an error.
    """
    from repro.runtime.lease import lease_is_stale, read_lease

    path = Path(path)
    report = ValidationReport(subject=f"lease {path.name}")
    if not path.is_file():
        return report
    report.tick()
    state = read_lease(path)
    if state is None:
        report.add(
            "lease-schema",
            "lease file exists but is undecodable",
            path=path.name,
        )
        return report
    import json as _json

    for problem in check_schema(
        _json.loads(state.to_json()), schema_for("lease")
    ):
        report.add("lease-schema", problem, path=path.name)
    if lease_is_stale(state):
        report.add(
            "lease-stale",
            f"lease held by dead/silent supervisor pid {state.pid} "
            f"(token {state.token}); the next supervisor will reclaim it",
            path=path.name,
            severity=SEVERITY_WARNING,
        )
    return report


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


def validate_trace_dir(path: Union[str, Path]) -> ValidationReport:
    """Validate one sharded ``.trd`` trace directory (format v3).

    Audits the manifest's self-checksum, its agreement with the shards
    actually on disk (indexes, totals, no extras), and every shard's
    SHA-256, content CRC, and reference count, finishing with the
    combined content hash.  Damage maps onto three codes:
    ``trace-manifest-mismatch`` (the index lies),
    ``trace-shard-missing`` (a listed shard is gone), and
    ``trace-shard-corrupt`` (a shard's bytes are wrong).
    """
    import hashlib

    from repro.mem import shards as shard_format

    path = Path(path)
    report = ValidationReport(subject=f"trace directory {path.name}")
    manifest_rel = shard_format.MANIFEST_FILENAME
    try:
        manifest = shard_format.read_manifest(path)
    except shard_format.TraceShardCorruptError as exc:
        report.add("trace-manifest-mismatch", str(exc), path=manifest_rel)
        return report
    finally:
        report.tick()

    entries = manifest.get("shards", [])
    indexes = [int(entry.get("index", -1)) for entry in entries]
    report.tick()
    if indexes != list(range(len(entries))):
        report.add(
            "trace-manifest-mismatch",
            f"shard indexes {indexes} are not exactly "
            f"0..{len(entries) - 1} in order (duplicate or gap)",
            path=manifest_rel,
        )
    report.tick()
    for key in ("refs", "reads", "writes"):
        from_shards = sum(int(entry.get(key, 0)) for entry in entries)
        if int(manifest.get(key, -1)) != from_shards:
            report.add(
                "trace-manifest-mismatch",
                f"manifest total {key}={manifest.get(key)} but its shard "
                f"entries sum to {from_shards}",
                path=manifest_rel,
            )
    listed = {str(entry.get("name", "")) for entry in entries}
    report.tick()
    for extra in sorted(p.name for p in path.glob("*.npz")):
        if extra not in listed:
            report.add(
                "trace-manifest-mismatch",
                f"shard file {extra!r} is on disk but not in the manifest",
                path=manifest_rel,
            )

    addr_hash = hashlib.sha256()
    kind_hash = hashlib.sha256()
    damaged = False
    for entry in entries:
        name = str(entry.get("name", ""))
        shard_path = path / name
        report.tick()
        if not shard_path.is_file():
            report.add(
                "trace-shard-missing",
                f"manifest lists {name!r} "
                f"({entry.get('refs')} refs) but the file is absent",
                path=name,
            )
            damaged = True
            continue
        try:
            data = shard_path.read_bytes()
            addrs, kinds = shard_format._decode_shard(data, entry, shard_path)
        except shard_format.TraceShardCorruptError as exc:
            report.add("trace-shard-corrupt", str(exc), path=name)
            damaged = True
            continue
        except OSError as exc:
            report.add(
                "trace-shard-corrupt", f"shard unreadable: {exc}", path=name
            )
            damaged = True
            continue
        addr_bytes, kind_bytes = shard_format._canonical_columns(addrs, kinds)
        addr_hash.update(addr_bytes)
        kind_hash.update(kind_bytes)
    report.tick()
    combined = hashlib.sha256(
        addr_hash.digest() + kind_hash.digest()
    ).hexdigest()
    if not damaged and combined != manifest.get("content_sha256"):
        report.add(
            "trace-manifest-mismatch",
            "every shard verifies individually but the combined content "
            "SHA-256 disagrees with the manifest",
            path=manifest_rel,
        )
    return report


def validate_spans_file(path: Union[str, Path]) -> ValidationReport:
    """Validate a ``spans.jsonl`` trace-span log line by line.

    Same strictness contract as :func:`validate_events_file`: the span
    writer is line-buffered and single-writer per process, so a crash
    can only tear the final line.  An undecodable line anywhere earlier
    is an error (``spans-torn``); a torn trailing line is the expected
    crash signature and only warns.  Every intact record is checked
    against the span schema (``spans-schema``), plus one invariant the
    schema language cannot express: ``dur_s`` must not be NaN.
    """
    path = Path(path)
    report = ValidationReport(subject=f"spans {path.name}")
    if not path.is_file():
        return report
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    for lineno, line in enumerate(lines, start=1):
        report.tick()
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
            if not isinstance(record, dict):
                raise ValueError("span line is not a JSON object")
        except (json.JSONDecodeError, ValueError) as exc:
            severity = "error" if lineno < len(lines) else SEVERITY_WARNING
            report.add(
                "spans-torn",
                f"line {lineno} is not a JSON object ({exc})"
                + ("" if lineno < len(lines) else " [trailing line: tolerated]"),
                path=str(path.name),
                severity=severity,
            )
            continue
        for problem in check_schema(record, schema_for("span")):
            report.add(
                "spans-schema", f"line {lineno}: {problem}", path=str(path.name)
            )
        dur = record.get("dur_s")
        if isinstance(dur, float) and dur != dur:  # NaN sneaks past "number"
            report.add(
                "spans-schema",
                f"line {lineno}: dur_s is NaN",
                path=str(path.name),
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
    the journal or event log actually issued (``metrics-dangling-id``)
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
                    f"per-attempt telemetry for uid {uid!r} which neither "
                    "the journal nor the event log ever started",
                    path=path.name,
                )
    return report


def validate_timeline_file(path: Union[str, Path]) -> ValidationReport:
    """Validate a ``timeline.jsonl`` working-set telemetry log.

    Timeline rows are CRC-framed single-``write`` appends, so damage
    anywhere but an unterminated final fragment is corruption
    (``timeline-torn``, error); the unterminated fragment itself is the
    expected crash signature and only warns.  Every decodable row is
    checked against the timeline-row schema plus one invariant the
    schema language cannot express: a ``misses`` vector must be as long
    as its ``cache_sizes`` ladder (``timeline-schema``).
    """
    path = Path(path)
    report = ValidationReport(subject=f"timeline {path.name}")
    if not path.is_file():
        return report
    from repro.obs.timeline import scan_timeline

    scan = scan_timeline(path)
    report.tick()
    for lineno in scan.damaged:
        report.add(
            "timeline-torn",
            f"line {lineno} fails its CRC frame before the tail "
            "(single-write appends may only tear the final line)",
            path=path.name,
        )
    if scan.torn_tail:
        report.add(
            "timeline-torn",
            "trailing line is a torn append (crash signature: tolerated)",
            path=path.name,
            severity=SEVERITY_WARNING,
        )
    for index, row in enumerate(scan.rows, start=1):
        report.tick()
        for problem in check_schema(row, schema_for("timeline-row")):
            report.add(
                "timeline-schema", f"row {index}: {problem}", path=path.name
            )
        sizes = row.get("cache_sizes")
        misses = row.get("misses")
        if (
            isinstance(sizes, list)
            and isinstance(misses, list)
            and len(sizes) != len(misses)
        ):
            report.add(
                "timeline-schema",
                f"row {index}: {len(misses)} miss slot(s) for "
                f"{len(sizes)} capacity ladder entr(ies)",
                path=path.name,
            )
    return report


def validate_archive_file(path: Union[str, Path]) -> ValidationReport:
    """Validate a ``perf-archive.jsonl`` cross-campaign perf archive.

    Same framing discipline as the timeline (``archive-corrupt`` for
    mid-file damage, warning for an unterminated torn tail).  Every
    decodable row must satisfy the archive-row schema *and* carry full
    attribution (git SHA, timestamp, hostname): the appenders refuse
    unattributed rows, so one on disk means the archive was edited
    outside the writers.
    """
    path = Path(path)
    report = ValidationReport(subject=f"archive {path.name}")
    if not path.is_file():
        return report
    from repro.obs.archive import ATTRIBUTION_KEYS, is_attributed, scan_archive

    scan = scan_archive(path)
    report.tick()
    for lineno in scan.damaged:
        report.add(
            "archive-corrupt",
            f"line {lineno} fails its CRC frame before the tail "
            "(single-write appends may only tear the final line)",
            path=path.name,
        )
    if scan.torn_tail:
        report.add(
            "archive-corrupt",
            "trailing line is a torn append (crash signature: tolerated)",
            path=path.name,
            severity=SEVERITY_WARNING,
        )
    for index, row in enumerate(scan.rows, start=1):
        report.tick()
        for problem in check_schema(row, schema_for("archive-row")):
            report.add(
                "archive-corrupt", f"row {index}: {problem}", path=path.name
            )
        if not is_attributed(row):
            missing = [
                key
                for key in ATTRIBUTION_KEYS
                if not (isinstance(row.get(key), str) and row.get(key))
            ]
            report.add(
                "archive-corrupt",
                f"row {index}: unattributed (missing "
                f"{', '.join(missing)}); the writers refuse such rows",
                path=path.name,
            )
    return report


def validate_cache_dir(cache_root: Union[str, Path]) -> ValidationReport:
    """Audit a content-addressed result cache (read-only).

    Every entry under ``objects/`` is re-verified exactly as the
    serving path would (envelope format, payload SHA-256, cache-entry
    schema, filename/stored/recomputed key agreement) — but without
    quarantining anything; findings use ``cache-entry-corrupt`` and
    ``cache-key-mismatch``.  The manifest index is schema-checked and
    cross-checked against the entries both ways: an indexed key with
    no valid entry is ``cache-dangling-entry`` (error — a hit the
    index promises but the store cannot serve), a valid entry the
    index missed is ``cache-unindexed-entry`` (warning — the entries
    are the truth, the index merely accelerates listing).
    """
    from repro.service.cache import (
        MANIFEST_FILENAME,
        ResultCache,
        verify_entry_envelope,
    )

    cache_root = Path(cache_root)
    report = ValidationReport(subject=f"cache {cache_root}")
    if not cache_root.is_dir():
        report.add("cache-missing", f"{cache_root} is not a directory")
        return report
    cache = ResultCache(cache_root)

    valid_keys: Dict[str, str] = {}  # key -> rel path
    if cache.objects_dir.is_dir():
        for path in sorted(cache.objects_dir.rglob("*.json")):
            rel = str(path.relative_to(cache_root))
            report.tick()
            try:
                envelope = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                report.add(
                    "cache-entry-corrupt", f"undecodable: {exc}", path=rel
                )
                continue
            problem = verify_entry_envelope(path.stem, envelope)
            if problem is not None:
                # The verifier's integrity message also says
                # "recomputed" (about the sha256), so match the two
                # key-disagreement messages precisely.
                code = (
                    "cache-key-mismatch"
                    if "does not recompute" in problem
                    or "filed under" in problem
                    else "cache-entry-corrupt"
                )
                report.add(code, problem, path=rel)
                continue
            valid_keys[path.stem] = rel

    manifest = cache.read_manifest()
    if cache.manifest_path.is_file():
        report.tick()
        if manifest is None:
            report.add(
                "cache-manifest-schema",
                "cache-manifest.json exists but is undecodable",
                path=MANIFEST_FILENAME,
            )
        elif _schema_findings(
            report,
            manifest,
            "cache-manifest",
            "cache-manifest-schema",
            MANIFEST_FILENAME,
        ):
            indexed = manifest.get("entries", {})
            for key in sorted(indexed):
                report.tick()
                if key not in valid_keys:
                    report.add(
                        "cache-dangling-entry",
                        f"manifest indexes key {key[:12]}… but objects/ "
                        "holds no valid entry for it",
                        path=MANIFEST_FILENAME,
                    )
            for key, rel in sorted(valid_keys.items()):
                report.tick()
                if key not in indexed:
                    report.add(
                        "cache-unindexed-entry",
                        f"valid entry {key[:12]}… is not in the manifest "
                        "index (lookups still work; listing is incomplete)",
                        path=rel,
                        severity=SEVERITY_WARNING,
                    )
    elif valid_keys:
        report.add(
            "cache-manifest-schema",
            "entries exist but there is no cache-manifest.json index",
            severity=SEVERITY_WARNING,
        )

    if cache.quarantine_dir.is_dir():
        quarantined = [
            p
            for p in cache.quarantine_dir.iterdir()
            if p.is_file() and not p.name.endswith(".reason")
        ]
        report.tick()
        if quarantined:
            report.add(
                "cache-quarantined",
                f"{len(quarantined)} quarantined entr"
                f"{'y' if len(quarantined) == 1 else 'ies'} present "
                "(corruption was detected and evicted; forensics under "
                "quarantine/)",
                path="quarantine",
                severity=SEVERITY_WARNING,
            )
    return report


def _merge_prefixed(
    report: ValidationReport, other: ValidationReport, prefix: str
) -> None:
    """Merge ``other`` into ``report``, prefixing every finding path."""
    report.tick(other.checks_run)
    for finding in other.findings:
        path = f"{prefix}/{finding.path}" if finding.path else prefix
        report.findings.append(dataclasses.replace(finding, path=path))


def validate_service_root(
    root: Union[str, Path], deep: bool = True
) -> ValidationReport:
    """Validate a whole multi-tenant service root.

    Audits every per-campaign run directory under
    ``campaigns/<tenant>/<id>/`` with :func:`validate_run_dir`, the
    service-level WAL (``service.wal``) with the journal auditor, any
    leftover service lease, and the shared content-addressed cache
    with :func:`validate_cache_dir`, merging all findings with
    path prefixes that name the offending tenant and campaign.
    """
    root = Path(root)
    report = ValidationReport(subject=f"service-root {root}")
    if not root.is_dir():
        report.add("run-dir-missing", f"{root} is not a directory")
        return report

    campaigns_dir = root / "campaigns"
    if campaigns_dir.is_dir():
        for campaign_dir in sorted(campaigns_dir.glob("*/*")):
            if not campaign_dir.is_dir():
                continue
            _merge_prefixed(
                report,
                validate_run_dir(campaign_dir, deep=deep),
                str(campaign_dir.relative_to(root)),
            )

    wal_path = root / "service.wal"
    if wal_path.is_file():
        report.extend(validate_journal_file(wal_path))
    report.extend(validate_lease_file(root / "supervisor.lease"))

    cache_root = root / "cache"
    if cache_root.is_dir():
        _merge_prefixed(report, validate_cache_dir(cache_root), "cache")

    report.extend(
        validate_metrics_file(root / "metrics.json", known_uids=None)
    )
    return report


def is_service_root(path: Union[str, Path]) -> bool:
    """Does ``path`` look like a service root rather than a run dir?"""
    path = Path(path)
    return (path / "campaigns").is_dir() or (path / "service.wal").is_file()


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

    # -- events --------------------------------------------------------
    report.extend(validate_events_file(store.events_path))

    # -- journal / lease ----------------------------------------------
    journal_path = run_dir / "journal.wal"
    report.extend(validate_journal_file(journal_path))
    if not journal_path.is_file() and statuses_on_disk:
        report.add(
            "journal-missing",
            "checkpoints exist but there is no journal.wal (pre-journal "
            "run directory; resume falls back to checkpoint presence)",
            severity=SEVERITY_WARNING,
        )
    report.extend(validate_lease_file(run_dir / "supervisor.lease"))

    # -- dispatch fabric WAL (only written by --nodes campaigns) ------
    report.extend(validate_dispatch_file(run_dir / "dispatch.wal"))

    # -- observability artifacts --------------------------------------
    report.extend(validate_spans_file(run_dir / "spans.jsonl"))
    report.extend(validate_timeline_file(run_dir / "timeline.jsonl"))
    report.extend(validate_archive_file(run_dir / "perf-archive.jsonl"))
    known_uids: List[str] = []
    if journal_path.is_file():
        from repro.runtime.journal import read_journal

        for record in read_journal(journal_path).records:
            uid = record.get("attempt_uid")
            if isinstance(uid, str):
                known_uids.append(uid)
    from repro.runtime.events import read_events

    for record in read_events(store.events_path):
        uid = record.get("attempt_uid")
        if isinstance(uid, str):
            known_uids.append(uid)
    report.extend(
        validate_metrics_file(run_dir / "metrics.json", known_uids=known_uids)
    )

    # -- traces --------------------------------------------------------
    trace_dirs = sorted(
        p for p in run_dir.rglob("*.trd") if p.is_dir()
    )
    staging_dirs = sorted(
        p for p in run_dir.rglob("*.trd.tmp") if p.is_dir()
    )
    shard_roots = set(trace_dirs) | set(staging_dirs)
    for path in sorted(run_dir.rglob("*.npz")):
        # Shards are audited by validate_trace_dir, not as single-file
        # archives; anything inside a staging dir is a crash leftover.
        if any(root in path.parents for root in shard_roots):
            continue
        trace_report = validate_trace_file(path)
        report.tick(trace_report.checks_run)
        rel = str(path.relative_to(run_dir))
        for finding in trace_report.findings:
            report.findings.append(dataclasses.replace(finding, path=rel))
    for trace_dir in trace_dirs:
        rel = str(trace_dir.relative_to(run_dir))
        dir_report = validate_trace_dir(trace_dir)
        report.tick(dir_report.checks_run)
        for finding in dir_report.findings:
            stamped = f"{rel}/{finding.path}" if finding.path else rel
            report.findings.append(dataclasses.replace(finding, path=stamped))
        wal = trace_dir / "shards.wal"
        if wal.is_file():
            _with_path(report, validate_journal_file(wal), f"{rel}/shards.wal")
    for staging in staging_dirs:
        report.tick()
        report.add(
            "trace-shard-incomplete",
            "staging directory left by an interrupted trace build (the "
            "expected crash signature; a retry regenerates the trace, so "
            "this is safe to delete)",
            path=str(staging.relative_to(run_dir)),
            severity=SEVERITY_WARNING,
        )

    # -- streaming simulator checkpoints ------------------------------
    from repro.mem.shards import load_sim_checkpoint

    for ckpt in sorted(run_dir.rglob("*.ckpt")):
        if not ckpt.is_file():
            continue
        report.tick()
        if load_sim_checkpoint(ckpt) is None:
            report.add(
                "sim-checkpoint-corrupt",
                "mid-simulation snapshot is damaged or unreadable (resume "
                "degrades safely: the simulation restarts from shard zero)",
                path=str(ckpt.relative_to(run_dir)),
                severity=SEVERITY_WARNING,
            )
    for wal in sorted(run_dir.rglob("*.ckpt.wal")):
        _with_path(
            report,
            validate_journal_file(wal),
            str(wal.relative_to(run_dir)),
        )

    return report
