"""Tests for read-only campaign status reconstruction.

Run directories are produced by the real engine (in-process backend,
fake clocks) so the artifacts carry exactly what production campaigns
write; corruption cases reuse the byte mutators from the validate
fuzzer rather than inventing a second damage model.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.obs.metrics import METRICS_FORMAT
from repro.obs.status import (
    STATE_FAILED,
    STATE_IN_DOUBT,
    STATE_OK,
    load_status,
    render_status,
)
from repro.obs.tracing import SPANS_MAGIC
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.engine import CampaignEngine, EngineConfig
from repro.runtime.events import EventLog
from repro.runtime.journal import Journal
from repro.runtime.lease import LEASE_FILENAME, LeaseState
from repro.runtime.records import frame
from repro.validate.fuzz import MUTATIONS

from tests.runtime.conftest import FakeClock, FakeExperiment, SleepRecorder


def run_campaign(run_dir, experiments, journal=True, **config_kwargs):
    """Run a real (in-process) campaign into ``run_dir``; returns store."""
    registry = {exp.experiment_id: (exp, {"n": 100}) for exp in experiments}
    overrides = {exp.experiment_id: {"n": 10} for exp in experiments}
    config_kwargs.setdefault("jobs", 0)
    config = EngineConfig(
        sleep=SleepRecorder(), clock=FakeClock(), **config_kwargs
    )
    engine = CampaignEngine(registry, quick_overrides=overrides, config=config)
    store = CheckpointStore(run_dir)
    engine.store = store
    engine.event_log = EventLog(store.events_path)
    if journal:
        engine.journal = Journal(run_dir / "journal.wal", fsync=False)
    try:
        engine.run()
    finally:
        engine.event_log.close()
        if engine.journal is not None:
            engine.journal.close()
    return store


class TestCompletedCampaign:
    def test_all_ok(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a"), FakeExperiment("b")])
        status = load_status(run_dir)
        assert status.state == "complete"
        assert status.requested == ["a", "b"]
        assert {e.state for e in status.experiments.values()} == {STATE_OK}
        assert all(e.attempts == 1 for e in status.experiments.values())
        assert status.events_seen > 0
        assert status.journal_records > 0
        assert status.eta_seconds is None  # nothing remaining, not running

    def test_render_mentions_verdict_and_experiments(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        text = render_status(load_status(run_dir))
        assert "state: complete" in text
        assert "1 requested | 1 ok" in text
        assert " a " in text


class TestFailuresAndRetries:
    def test_retry_counts_and_failure_category(self, tmp_path):
        from repro.runtime.errors import SimulationError

        run_dir = tmp_path / "run"
        run_campaign(
            run_dir,
            [
                FakeExperiment("flaky", fail_times=1, error=SimulationError("x")),
                FakeExperiment(
                    "doomed", fail_times=99, error=SimulationError("dead")
                ),
            ],
            max_attempts=2,
        )
        status = load_status(run_dir)
        flaky = status.experiments["flaky"]
        assert flaky.state == "degraded"  # healed by the degraded retry
        assert flaky.retries == 1
        assert flaky.failed_attempts == 1
        doomed = status.experiments["doomed"]
        assert doomed.state == STATE_FAILED
        assert doomed.failed_attempts == 2
        assert doomed.last_failure == "simulation"

    def test_interrupted_campaign(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                run_dir,
                [
                    FakeExperiment("done"),
                    FakeExperiment("cut", fail_times=99, error=KeyboardInterrupt()),
                ],
            )
        status = load_status(run_dir)
        assert status.state == "interrupted"
        assert status.experiments["done"].state == STATE_OK
        # The interrupted experiment never finished and nobody is alive.
        assert status.experiments["cut"].state == STATE_IN_DOUBT

    def test_resumed_campaign_flags_resumed(self, tmp_path):
        from repro.runtime.errors import SimulationError

        run_dir = tmp_path / "run"
        run_campaign(
            run_dir,
            [
                FakeExperiment("a"),
                FakeExperiment("b", fail_times=99, error=SimulationError("x")),
            ],
            max_attempts=1,
        )
        run_campaign(run_dir, [FakeExperiment("a"), FakeExperiment("b")])
        status = load_status(run_dir)
        assert status.state == "complete"
        assert status.experiments["a"].resumed
        assert status.experiments["a"].state == STATE_OK
        assert status.experiments["b"].state == STATE_OK
        assert "(resumed)" in render_status(status)


class TestLiveness:
    def _lease(self, run_dir, heartbeat_wall):
        state = LeaseState(
            pid=os.getpid(),
            token=3,
            acquired_wall=heartbeat_wall,
            heartbeat_wall=heartbeat_wall,
            hostname="testhost",
        )
        (run_dir / LEASE_FILENAME).write_text(state.to_json())

    def test_live_lease_means_running(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        now = 1_700_000_000.0
        self._lease(run_dir, heartbeat_wall=now - 1.0)
        status = load_status(run_dir, now=now)
        assert status.state == "running"
        assert status.supervisor["live"] is True
        assert status.supervisor["pid"] == os.getpid()

    def test_stale_lease_does_not_claim_running(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        now = 1_700_000_000.0
        self._lease(run_dir, heartbeat_wall=now - 3600.0)
        status = load_status(run_dir, now=now)
        assert status.state == "complete"
        assert status.supervisor["live"] is False


class TestThroughput:
    def test_metrics_snapshot_feeds_refs_and_rate(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        (run_dir / "metrics.json").write_text(
            json.dumps(
                {
                    "format": METRICS_FORMAT,
                    "written_wall": 1.0,
                    "trace_id": "cafe0123",
                    "campaign": {
                        "counters": {
                            "mem.fullassoc.refs": 4000,
                            "mem.setassoc.refs": 1000,
                        },
                        "gauges": {"mem.fullassoc.last_refs_per_second": 2e6},
                        "histograms": {},
                    },
                    "attempts": {},
                }
            )
        )
        status = load_status(run_dir)
        assert status.refs_simulated == 5000
        assert status.refs_per_second == 2e6
        assert status.trace_id == "cafe0123"
        text = render_status(status)
        assert "5,000 refs simulated" in text
        assert "trace: cafe0123" in text

    def test_damaged_metrics_degrades_to_none(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        (run_dir / "metrics.json").write_text('{"format": ')
        status = load_status(run_dir)
        assert status.refs_simulated is None
        assert status.refs_per_second is None

    def test_stream_gauges_render_shard_progress(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        (run_dir / "metrics.json").write_text(
            json.dumps(
                {
                    "format": METRICS_FORMAT,
                    "written_wall": 1.0,
                    "campaign": {
                        "counters": {},
                        "gauges": {
                            "mem.stream.shards_done": 3,
                            "mem.stream.shards_total": 7,
                        },
                        "histograms": {},
                    },
                    "attempts": {},
                }
            )
        )
        status = load_status(run_dir)
        assert status.stream_shards_done == 3
        assert status.stream_shards_total == 7
        assert "streaming: shard 3/7" in render_status(status)
        assert status.to_dict()["stream_shards_done"] == 3

    def test_unstreamed_campaign_has_no_shard_line(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        status = load_status(run_dir)
        assert status.stream_shards_done is None
        assert "streaming:" not in render_status(status)


class TestDamageTolerance:
    """Status must never raise on a damaged run directory."""

    def test_empty_directory(self, tmp_path):
        status = load_status(tmp_path)
        assert status.state == "empty"
        render_status(status)

    def test_missing_directory(self, tmp_path):
        status = load_status(tmp_path / "never-made")
        assert status.state == "empty"

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("victim", ["events.jsonl", "spans.jsonl", "journal.wal"])
    def test_mutated_artifacts_never_raise(self, tmp_path, mutation, victim):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a"), FakeExperiment("b")])
        (run_dir / "spans.jsonl").write_bytes(
            frame(
                SPANS_MAGIC,
                {
                    "name": "campaign.run",
                    "trace_id": "t",
                    "span_id": "s",
                    "t_wall": 1.0,
                    "dur_s": 2.0,
                    "status": "ok",
                    "pid": 1,
                },
            )
        )
        target = run_dir / victim
        rng = np.random.default_rng(7)
        target.write_bytes(MUTATIONS[mutation](target.read_bytes(), rng))
        status = load_status(run_dir)
        render_status(status)
        # The untouched artifacts still carry the story.
        if victim != "events.jsonl" or mutation not in ("empty", "truncate"):
            assert status.requested == ["a", "b"]

    def test_torn_event_tail_is_skipped(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        with open(run_dir / "events.jsonl", "a") as fh:
            fh.write('{"seq": 999, "event": "torn')
        status = load_status(run_dir)
        assert status.state == "complete"
        assert status.experiments["a"].state == STATE_OK


class TestKernelTallies:
    def metrics_payload(self, counters, gauges):
        return json.dumps(
            {
                "format": METRICS_FORMAT,
                "written_wall": 1.0,
                "campaign": {
                    "counters": counters,
                    "gauges": gauges,
                    "histograms": {},
                },
                "attempts": {},
            }
        )

    def test_kernel_counters_render_one_line_per_kernel(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        (run_dir / "metrics.json").write_text(
            self.metrics_payload(
                {
                    "mem.kernel.stackdist.chunks": 12,
                    "mem.kernel.fullassoc.chunks": 4,
                    "mem.fullassoc.refs": 9000,
                },
                {},
            )
        )
        status = load_status(run_dir)
        assert status.kernels == {
            "fullassoc": {"chunks": 4},
            "stackdist": {"chunks": 12},
        }
        text = render_status(status)
        assert "kernel stackdist: vector (12 chunk(s))" in text
        assert "kernel fullassoc: vector (4 chunk(s))" in text
        assert status.to_dict()["kernels"]["fullassoc"]["chunks"] == 4

    def test_pre_kernel_run_dir_has_no_kernel_lines(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        status = load_status(run_dir)
        assert status.kernels is None
        assert "kernel " not in render_status(status)

    def test_report_renders_kernel_tiers(self, tmp_path):
        from repro.obs.report import render_report

        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        (run_dir / "metrics.json").write_text(
            self.metrics_payload(
                {"mem.kernel.stackdist.chunks": 2},
                {},
            )
        )
        text = render_report(run_dir)
        assert "Kernel `stackdist`: **vector** tier — 2 chunk(s)." in text
