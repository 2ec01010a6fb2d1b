"""Artifact validation: every corruption class gets its own typed code."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.curves import MissRateCurve
from repro.experiments.runner import ExperimentResult
from repro.mem.trace import TraceBuilder
from repro.mem.tracefile import save_trace, trace_header
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.engine import ExperimentOutcome
from repro.obs.tracing import SPANS_MAGIC
from repro.runtime.events import EVENTS_MAGIC, EventLog
from repro.runtime.records import frame
from repro.validate.artifacts import (
    validate_events_file,
    validate_run_dir,
    validate_trace_file,
)


def make_result(experiment_id: str = "figA") -> ExperimentResult:
    return ExperimentResult(
        experiment_id=experiment_id,
        title="A figure",
        curves=[
            MissRateCurve(
                capacities=np.array([64, 128]),
                miss_rates=np.array([0.5, 0.25]),
            )
        ],
    )


def make_trace():
    tb = TraceBuilder()
    for block in range(32):
        tb.read(8 * block)
        tb.write(8 * block)
    return tb.build()


@pytest.fixture
def clean_run(tmp_path):
    """A minimal but complete healthy campaign directory."""
    run_dir = tmp_path / "run"
    store = CheckpointStore(run_dir)
    store.write_manifest({"experiments": ["figA"], "quick": True})
    store.save_outcome(
        ExperimentOutcome(
            experiment_id="figA",
            status="ok",
            result=make_result("figA"),
            attempts=1,
        )
    )
    store.write_summary(
        {
            "status": "complete",
            "requested": ["figA"],
            "completed": ["figA"],
            "statuses": {"figA": "ok"},
        }
    )
    with EventLog(store.events_path) as log:
        log.emit("campaign-start")
        log.emit("start", experiment_id="figA")
        log.emit("checkpointed", experiment_id="figA")
    trace = make_trace()
    save_trace(run_dir / "figA.npz", trace, metadata=trace_header(trace))
    return run_dir


class TestCleanRun:
    def test_clean_run_passes(self, clean_run):
        report = validate_run_dir(clean_run)
        assert report.ok, report.render()
        assert report.checks_run > 5

    def test_missing_run_dir(self, tmp_path):
        report = validate_run_dir(tmp_path / "nope")
        assert report.codes() == ["run-dir-missing"]

    def test_empty_dir_warns_but_passes(self, tmp_path):
        report = validate_run_dir(tmp_path)
        assert report.ok
        codes = report.codes()
        assert "manifest-missing" in codes
        assert "summary-missing" in codes


class TestCorruptionClasses:
    """Each ISSUE-mandated corruption class yields its distinct code."""

    def test_truncated_trace(self, clean_run):
        path = clean_run / "figA.npz"
        path.write_bytes(path.read_bytes()[:40])
        report = validate_run_dir(clean_run)
        assert "trace-unreadable" in report.codes()

    def test_bit_flipped_trace(self, clean_run):
        path = clean_run / "figA.npz"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        report = validate_run_dir(clean_run)
        assert not report.ok
        codes = set(report.codes())
        # A mid-file flip can land in the zip directory (unreadable) or
        # in a member (decodes but fails checksum); both are detected.
        assert codes & {"trace-corrupt", "trace-unreadable"}

    def test_bit_flipped_checkpoint(self, clean_run):
        path = clean_run / "results" / "figA.json"
        text = path.read_text()
        path.write_text(text.replace('"ok"', '"OK"', 1))
        report = validate_run_dir(clean_run)
        assert "checkpoint-corrupt" in report.codes()

    def test_torn_event_line_mid_log(self, clean_run):
        events = clean_run / "events.jsonl"
        lines = events.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        events.write_text("\n".join(lines) + "\n")
        report = validate_run_dir(clean_run)
        assert "events-torn" in report.codes()
        assert not report.ok

    def test_torn_final_line_is_tolerated(self, clean_run):
        events = clean_run / "events.jsonl"
        text = events.read_text().rstrip("\n")
        events.write_text(text[:-4])
        report = validate_run_dir(clean_run)
        torn = report.by_code("events-torn")
        assert torn and torn[0].severity == "warning"
        assert report.ok

    def test_stale_checkpoint(self, clean_run):
        store = CheckpointStore(clean_run)
        store.save_outcome(
            ExperimentOutcome(
                experiment_id="ghost",
                status="ok",
                result=make_result("ghost"),
            )
        )
        report = validate_run_dir(clean_run)
        assert "checkpoint-stale" in report.codes()

    def test_header_mismatch(self, clean_run):
        save_trace(
            clean_run / "bad-header.npz", make_trace(), metadata={"refs": 1}
        )
        report = validate_run_dir(clean_run)
        assert "trace-header-mismatch" in report.codes()

    def test_dangling_summary_id(self, clean_run):
        store = CheckpointStore(clean_run)
        store.write_summary(
            {
                "status": "complete",
                "requested": ["figA", "figB"],
                "completed": ["figA", "figB"],
                "statuses": {"figA": "ok", "figB": "ok"},
            }
        )
        report = validate_run_dir(clean_run)
        assert "summary-dangling-id" in report.codes()


class TestFinerDiagnostics:
    def test_summary_status_mismatch(self, clean_run):
        store = CheckpointStore(clean_run)
        store.write_summary(
            {
                "status": "complete",
                "requested": ["figA"],
                "completed": ["figA"],
                "statuses": {"figA": "degraded"},
            }
        )
        report = validate_run_dir(clean_run)
        assert "summary-status-mismatch" in report.codes()

    def test_checkpoint_id_mismatch(self, clean_run):
        store = CheckpointStore(clean_run)
        payload = ExperimentOutcome(
            experiment_id="figA", status="ok", result=make_result("figA")
        ).to_dict()
        store._write_envelope(store.results_dir / "other.json", payload)
        report = validate_run_dir(clean_run)
        assert "checkpoint-id-mismatch" in report.codes()

    def test_status_misfiled(self, clean_run):
        store = CheckpointStore(clean_run)
        payload = ExperimentOutcome(
            experiment_id="figZ", status="failed"
        ).to_dict()
        store._write_envelope(store.results_dir / "figZ.json", payload)
        report = validate_run_dir(clean_run)
        assert "outcome-status-misfiled" in report.codes()

    def test_deep_oracles_run_over_stored_results(self, clean_run):
        store = CheckpointStore(clean_run)
        bad = make_result("figA")
        bad.curves[0].miss_rates = np.array([0.5, np.nan])
        store.save_outcome(
            ExperimentOutcome(experiment_id="figA", status="ok", result=bad)
        )
        report = validate_run_dir(clean_run, deep=True)
        findings = report.by_code("curve-not-finite")
        assert findings and "results/figA.json" in str(findings[0].path)
        assert validate_run_dir(clean_run, deep=False).ok

    def test_manifest_schema_violation(self, clean_run):
        store = CheckpointStore(clean_run)
        store.write_manifest({"experiments": "figA"})
        report = validate_run_dir(clean_run)
        assert "manifest-schema" in report.codes()


class TestEventsFile:
    def test_missing_file_is_empty_pass(self, tmp_path):
        assert validate_events_file(tmp_path / "none.jsonl").ok

    def test_seq_regression_detected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        records = [
            {"seq": 1, "t_mono": 0.0, "t_wall": 1.0, "event": "a"},
            {"seq": 1, "t_mono": 0.1, "t_wall": 1.1, "event": "b"},
        ]
        path.write_bytes(b"".join(frame(EVENTS_MAGIC, r) for r in records))
        report = validate_events_file(path)
        assert "events-seq" in report.codes()

    def test_schema_violation_detected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(frame(EVENTS_MAGIC, {"seq": 1, "event": "a"}))
        report = validate_events_file(path)
        assert "event-schema" in report.codes()


class TestTraceFile:
    def test_clean_trace_passes(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(path, make_trace(), metadata={"processor": 0, "seed": 0})
        report = validate_trace_file(path)
        assert report.ok, report.render()

    def test_not_a_zip_at_all(self, tmp_path):
        path = tmp_path / "t.npz"
        path.write_bytes(b"definitely not a zip archive")
        report = validate_trace_file(path)
        assert report.codes() == ["trace-unreadable"]


class TestJournalAndLease:
    """The durability artifacts: journal.wal and supervisor.lease."""

    def write_journal(self, run_dir, *appends, token=1):
        from repro.runtime.journal import JOURNAL_FILENAME, Journal

        with Journal(run_dir / JOURNAL_FILENAME, token=token) as journal:
            for record_type, fields in appends:
                journal.append(record_type, **fields)
        return run_dir / JOURNAL_FILENAME

    def test_healthy_journal_passes(self, clean_run):
        self.write_journal(
            clean_run,
            ("campaign-start", {"experiments": ["figA"]}),
            ("attempt-end", {"experiment_id": "figA", "status": "ok"}),
            ("summary-flushed", {"status": "complete"}),
        )
        report = validate_run_dir(clean_run)
        assert report.ok, report.render()
        assert "journal-missing" not in report.codes()

    def test_missing_journal_is_a_warning(self, clean_run):
        report = validate_run_dir(clean_run)
        missing = report.by_code("journal-missing")
        assert missing and missing[0].severity == "warning"
        assert report.ok

    def test_torn_tail_is_a_warning(self, clean_run):
        path = self.write_journal(
            clean_run, ("campaign-start", {"experiments": ["figA"]})
        )
        with open(path, "ab") as handle:
            handle.write(b"WAL1 dead")
        report = validate_run_dir(clean_run)
        torn = report.by_code("journal-torn")
        assert torn and torn[0].severity == "warning"
        assert report.ok

    def test_mid_file_corruption_is_an_error(self, clean_run):
        path = self.write_journal(
            clean_run,
            ("campaign-start", {"experiments": ["figA"]}),
            ("summary-flushed", {"status": "complete"}),
        )
        blob = bytearray(path.read_bytes())
        blob[8] ^= 0xFF
        path.write_bytes(bytes(blob))
        report = validate_run_dir(clean_run)
        assert "journal-corrupt" in report.codes()
        assert not report.ok

    def test_seq_regression_is_an_error(self, clean_run):
        from repro.runtime.journal import JOURNAL_FILENAME, JOURNAL_MAGIC

        lines = b"".join(
            frame(
                JOURNAL_MAGIC,
                {"seq": seq, "token": 1, "t_wall": 0.0, "type": "recovered"}
            )
            for seq in (2, 1)
        )
        (clean_run / JOURNAL_FILENAME).write_bytes(lines)
        report = validate_run_dir(clean_run)
        assert "journal-seq" in report.codes()

    def test_schema_violation_is_an_error(self, clean_run):
        from repro.runtime.journal import JOURNAL_FILENAME, JOURNAL_MAGIC

        record = {"seq": 1, "token": 1, "t_wall": 0.0, "type": "not-a-type"}
        (clean_run / JOURNAL_FILENAME).write_bytes(frame(JOURNAL_MAGIC, record))
        report = validate_run_dir(clean_run)
        assert "journal-schema" in report.codes()

    def test_retired_dispatch_record_type_is_an_error(self, clean_run):
        from repro.runtime.journal import JOURNAL_FILENAME, JOURNAL_MAGIC

        record = {
            "seq": 1, "token": 1, "t_wall": 0.0, "type": "dispatch-assign",
        }
        (clean_run / JOURNAL_FILENAME).write_bytes(frame(JOURNAL_MAGIC, record))
        report = validate_run_dir(clean_run)
        assert "journal-schema" in report.codes()
        assert not report.ok

    def test_stale_lease_is_a_warning(self, clean_run):
        import subprocess

        from repro.runtime.lease import LEASE_FILENAME, LeaseState

        proc = subprocess.Popen(["true"])
        proc.wait()
        state = LeaseState(
            pid=proc.pid, token=1, acquired_wall=0.0, heartbeat_wall=0.0
        )
        (clean_run / LEASE_FILENAME).write_text(state.to_json())
        report = validate_run_dir(clean_run)
        stale = report.by_code("lease-stale")
        assert stale and stale[0].severity == "warning"
        assert report.ok

    def test_undecodable_lease_is_an_error(self, clean_run):
        from repro.runtime.lease import LEASE_FILENAME

        (clean_run / LEASE_FILENAME).write_text("{half a lease")
        report = validate_run_dir(clean_run)
        assert "lease-schema" in report.codes()
        assert not report.ok


class TestObservabilityArtifacts:
    """The spans/metrics validators added with the obs subsystem."""

    def _span_line(self, **overrides):
        record = {
            "name": "campaign.run",
            "trace_id": "t0",
            "span_id": "s0",
            "t_wall": 1.0,
            "dur_s": 0.5,
            "status": "ok",
            "pid": 1,
        }
        record.update(overrides)
        return frame(SPANS_MAGIC, record).decode().rstrip("\n")

    def _metrics(self, clean_run, **overrides):
        payload = {
            "format": 1,
            "written_wall": 1.0,
            "trace_id": "t0",
            "campaign": {"counters": {}, "gauges": {}, "histograms": {}},
            "attempts": {},
        }
        payload.update(overrides)
        (clean_run / "metrics.json").write_text(json.dumps(payload))
        return payload

    def test_clean_spans_and_metrics_pass(self, clean_run):
        (clean_run / "spans.jsonl").write_text(self._span_line() + "\n")
        self._metrics(clean_run)
        report = validate_run_dir(clean_run)
        assert report.ok, report.render()

    def test_torn_span_line_before_eof_is_an_error(self, clean_run):
        (clean_run / "spans.jsonl").write_text(
            '{"torn\n' + self._span_line() + "\n"
        )
        report = validate_run_dir(clean_run)
        torn = report.by_code("spans-torn")
        assert torn and torn[0].severity == "error"

    def test_torn_trailing_span_line_only_warns(self, clean_run):
        (clean_run / "spans.jsonl").write_text(
            self._span_line() + "\n" + '{"torn'
        )
        report = validate_run_dir(clean_run)
        torn = report.by_code("spans-torn")
        assert torn and torn[0].severity == "warning"
        assert report.ok

    def test_span_schema_violation(self, clean_run):
        (clean_run / "spans.jsonl").write_text(
            self._span_line(status="exploded", dur_s=-1.0) + "\n"
        )
        report = validate_run_dir(clean_run)
        assert "spans-schema" in report.codes()

    def test_undecodable_metrics_is_an_error(self, clean_run):
        (clean_run / "metrics.json").write_text('{"format": ')
        report = validate_run_dir(clean_run)
        assert "metrics-schema" in report.codes()

    def test_metrics_schema_violation(self, clean_run):
        self._metrics(clean_run, campaign={"counters": {"c": "NaN-ish"}})
        report = validate_run_dir(clean_run)
        assert "metrics-schema" in report.codes()

    def test_histogram_count_arity_checked(self, clean_run):
        self._metrics(
            clean_run,
            campaign={
                "counters": {},
                "gauges": {},
                "histograms": {
                    "h": {
                        "buckets": [1.0, 2.0],
                        "counts": [1, 2],
                        "sum": 3.0,
                        "count": 3,
                    }
                },
            },
        )
        report = validate_run_dir(clean_run)
        assert "metrics-schema" in report.codes()

    def test_dangling_attempt_uid_detected(self, clean_run):
        self._metrics(
            clean_run,
            attempts={"never-started-1-1": {"rss_peak_kb": 1, "spans": 0}},
        )
        report = validate_run_dir(clean_run)
        assert "metrics-dangling-id" in report.codes()

    def test_known_attempt_uid_accepted(self, clean_run):
        with EventLog(clean_run / "events.jsonl") as log:
            log.emit("start", experiment_id="figA", attempt_uid="figA-1-1")
        self._metrics(
            clean_run,
            attempts={"figA-1-1": {"rss_peak_kb": 1, "spans": 0}},
        )
        report = validate_run_dir(clean_run)
        assert "metrics-dangling-id" not in report.codes()
        assert report.ok, report.render()


class TestStreamingArtifacts:
    """Run-dir auditing of the sharded-trace streaming substrate."""

    def _streamed_run(self, tmp_path, shard_refs=128):
        from repro.mem.shards import StreamingTraceBuilder
        from tests.conftest import random_trace

        run_dir = tmp_path / "run"
        stream = run_dir / "stream"
        stream.mkdir(parents=True)
        trace = random_trace(600, 90, seed=31)
        builder = StreamingTraceBuilder(stream / "t.trd", shard_refs=shard_refs)
        builder.extend_arrays(trace.addrs, trace.kinds)
        return run_dir, builder.build()

    def test_clean_streamed_run_dir_passes(self, tmp_path):
        run_dir, _ = self._streamed_run(tmp_path)
        report = validate_run_dir(run_dir)
        assert not report.errors, report.render()

    def test_shard_damage_surfaces_with_relative_path(self, tmp_path):
        from repro.mem.shards import shard_name

        run_dir, streamed = self._streamed_run(tmp_path)
        (streamed.directory / shard_name(2)).unlink()
        report = validate_run_dir(run_dir)
        findings = [f for f in report.errors if f.code == "trace-shard-missing"]
        assert findings and "stream/t.trd" in (findings[0].path or "")

    def test_staging_dir_is_a_warning_only(self, tmp_path):
        from repro.mem.shards import StreamingTraceBuilder
        from tests.conftest import random_trace

        run_dir, _ = self._streamed_run(tmp_path)
        orphan = StreamingTraceBuilder(
            run_dir / "stream" / "orphan.trd", shard_refs=64
        )
        trace = random_trace(200, 30, seed=32)
        orphan.extend_arrays(trace.addrs, trace.kinds)  # never build()
        report = validate_run_dir(run_dir)
        assert not report.errors, report.render()
        assert "trace-shard-incomplete" in report.codes()

    def test_damaged_sim_checkpoint_is_a_warning(self, tmp_path):
        from repro.mem.shards import save_sim_checkpoint

        run_dir, _ = self._streamed_run(tmp_path)
        ckpt_dir = run_dir / "stream" / "checkpoints"
        ckpt_dir.mkdir()
        path = ckpt_dir / "abc123.ckpt"
        save_sim_checkpoint(path, {"next_shard": 1, "state": {}})
        path.write_bytes(path.read_bytes()[:-5])
        report = validate_run_dir(run_dir)
        assert not report.errors, report.render()
        assert "sim-checkpoint-corrupt" in report.codes()

    def test_healthy_sim_checkpoint_passes(self, tmp_path):
        from repro.mem.shards import save_sim_checkpoint

        run_dir, _ = self._streamed_run(tmp_path)
        ckpt_dir = run_dir / "stream" / "checkpoints"
        ckpt_dir.mkdir()
        save_sim_checkpoint(
            ckpt_dir / "abc123.ckpt", {"next_shard": 1, "state": {}}
        )
        report = validate_run_dir(run_dir)
        assert not report.errors, report.render()
        assert "sim-checkpoint-corrupt" not in report.codes()


class TestKernelBundles:
    """Kernel trust lives in the tests and CI, so a run directory holds
    no kernel artifacts to audit, and leftovers of older runs are not
    read."""

    def test_pre_kernel_run_dir_is_silent(self, clean_run):
        stale = clean_run / "kernel-bundles"
        stale.mkdir()
        (stale / "fullassoc-chunk000001.json").write_text("{not json")
        report = validate_run_dir(clean_run)
        assert not any(code.startswith("kernel-") for code in report.codes())
        assert report.ok
