"""Tests for the temporal working-set timeline (repro.obs.timeline)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import timeline as tl
from repro.runtime import records

from tests.harness.fuzz import MUTATIONS

#: Fields every row carries whatever its kind: framing and labels.
ENVELOPE = {"v", "kind", "seq", "pid", "t_wall", "experiment_id", "attempt_uid"}

#: Fields that differ between two runs of the same simulation.
NOT_CONTENT = ("t_wall", "pid", "seq", "attempt_uid")


def _row(seq=0, ws_blocks=100, **extra):
    row = {
        "v": 1,
        "kind": "stackdist",
        "seq": seq,
        "pid": 7,
        "t_wall": 1000.0 + seq,
        "refs": 4096,
        "counted": 4096,
        "cold": 0,
        "block_size": 8,
        "ws_blocks": ws_blocks,
    }
    row.update(extra)
    return row


def _frame(row):
    return records.frame(tl.TIMELINE_MAGIC, row)


def _decode(line):
    try:
        return records.decode(line, tl.TIMELINE_MAGIC)
    except ValueError:
        return None


def _write_rows(path, rows):
    with open(path, "wb") as handle:
        for row in rows:
            handle.write(_frame(row))


class TestFraming:
    def test_roundtrip(self):
        row = _row()
        assert _decode(_frame(row)) == row

    def test_crc_damage_returns_none(self):
        line = bytearray(_frame(_row()))
        line[-3] ^= 0x40
        assert _decode(bytes(line)) is None

    def test_wrong_magic_returns_none(self):
        line = records.frame("XXXX", _row())
        assert _decode(line) is None

    def test_non_dict_payload_returns_none(self):
        data = json.dumps([1, 2]).encode()
        import zlib

        line = f"TLN1 {zlib.crc32(data):08x} ".encode() + data + b"\n"
        assert _decode(line) is None

    def test_scan_separates_torn_tail_from_damage(self, tmp_path):
        path = tmp_path / "timeline.jsonl"
        good = _frame(_row(0)) + _frame(_row(1))
        path.write_bytes(good + b"TLN1 deadbeef {torn")  # unterminated
        scan = records.scan(path, tl.TIMELINE_MAGIC)
        assert len(scan.records) == 2
        assert scan.torn_tail
        assert scan.damaged == []

    def test_scan_flags_midfile_damage(self, tmp_path):
        path = tmp_path / "timeline.jsonl"
        path.write_bytes(
            _frame(_row(0)) + b"garbage line\n" + _frame(_row(1))
        )
        scan = records.scan(path, tl.TIMELINE_MAGIC)
        assert len(scan.records) == 2
        assert [line for line, _ in scan.damaged] == [2]
        assert not scan.torn_tail

    def test_truncate_torn_tail_drops_the_torn_append(self, tmp_path):
        path = tmp_path / "timeline.jsonl"
        good = _frame(_row(0))
        path.write_bytes(good + b"TLN1 0000 {half")
        records.truncate_torn_tail(path, tl.TIMELINE_MAGIC, "timeline")
        assert path.read_bytes() == good
        assert tl.read_timeline(path) == [_row(0)]

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_scan_never_raises_on_mutation(self, tmp_path, mutation):
        path = tmp_path / "timeline.jsonl"
        _write_rows(path, [_row(i) for i in range(20)])
        rng = np.random.default_rng(7)
        path.write_bytes(MUTATIONS[mutation](path.read_bytes(), rng))
        scan = records.scan(path, tl.TIMELINE_MAGIC)  # must not raise
        for row in scan.records:
            assert isinstance(row, dict)
        # must not raise either
        records.truncate_torn_tail(path, tl.TIMELINE_MAGIC, "timeline")
        tl.read_timeline(path)


class TestPhaseDetector:
    def test_two_phase_synthetic_signal(self):
        rows = [_row(i, ws_blocks=120 + (i % 3)) for i in range(10)]
        rows += [_row(10 + i, ws_blocks=4000 + (i % 5)) for i in range(10)]
        phases = tl.detect_phases(rows)
        assert len(phases) == 2
        assert phases[0].rows == 10
        assert phases[1].rows == 10
        assert phases[0].ws_bytes() < phases[1].ws_bytes()

    def test_single_blip_absorbed(self):
        rows = [_row(i, ws_blocks=100) for i in range(6)]
        rows.append(_row(6, ws_blocks=9000))  # lone outlier
        rows += [_row(7 + i, ws_blocks=100) for i in range(6)]
        phases = tl.detect_phases(rows)
        assert len(phases) == 1
        assert phases[0].rows == 13

    def test_rows_without_ws_are_ignored(self):
        detector = tl.PhaseDetector()
        detector.update({"kind": "stackdist"})
        assert detector.phases == []

    def test_per_phase_knees_from_miss_vectors(self):
        sizes = [1024, 2048, 4096, 8192, 16384]
        # Sharp knee at 4096: misses collapse there and stay flat after.
        misses = [4000, 3900, 100, 90, 80]
        rows = [
            _row(i, ws_blocks=512, cache_sizes=sizes, misses=misses)
            for i in range(5)
        ]
        phases = tl.detect_phases(rows)
        assert len(phases) == 1
        knees = phases[0].knees()
        assert [int(k.capacity_bytes) for k in knees] == [4096]
        info = phases[0].to_dict()
        assert info["knee_bytes"] == [4096]
        assert info["miss_rate"] == pytest.approx(80 * 5 / (4096 * 5))

    def test_summary_tracks_current_phase(self):
        detector = tl.PhaseDetector()
        for i in range(5):
            detector.update(_row(i, ws_blocks=100))
        summary = detector.summary()
        assert summary["phases"] == 1
        assert summary["phase"] == 1
        assert summary["ws_bytes"] == 100 * 8


class TestLatestAttemptRows:
    def test_newest_attempt_wins(self):
        old = [_row(i, attempt_uid="a@1.1", t_wall=10.0 + i) for i in range(3)]
        new = [_row(i, attempt_uid="a@1.2", t_wall=50.0 + i) for i in range(2)]
        assert tl.latest_attempt_rows(old + new) == new

    def test_experiment_filter(self):
        a = [_row(0, experiment_id="a", attempt_uid="a@1.1")]
        b = [_row(1, experiment_id="b", attempt_uid="b@1.1", t_wall=2000.0)]
        assert tl.latest_attempt_rows(a + b, experiment_id="a") == a

    def test_pid_grouping_fallback(self):
        rows = [_row(0, pid=1), _row(1, pid=2, t_wall=5000.0)]
        assert tl.latest_attempt_rows(rows) == [rows[1]]


class TestRecorder:
    def test_records_framed_rows_with_labels(self, tmp_path):
        obs_metrics.set_obs_enabled(True)
        recorder = tl.configure_timeline(tmp_path / "timeline.jsonl")
        tl.set_labels(experiment_id="fig2", attempt_uid="fig2@1.1")
        assert recorder.record("stackdist", refs=100, ws_blocks=10, none_field=None)
        recorder.record("stackdist", refs=100, ws_blocks=10)
        rows = tl.read_timeline(tmp_path / "timeline.jsonl")
        assert [r["seq"] for r in rows] == [0, 1]
        assert rows[0]["experiment_id"] == "fig2"
        assert rows[0]["attempt_uid"] == "fig2@1.1"
        assert "none_field" not in rows[0]

    def test_counters_published_and_nothing_derived(self, tmp_path):
        """The recorder only appends: it counts rows and derives nothing
        (phases are derived where rows are read)."""
        obs_metrics.set_obs_enabled(True)
        recorder = tl.configure_timeline(tmp_path / "timeline.jsonl")
        for i in range(4):
            recorder.record("stackdist", refs=100, ws_blocks=64 * 4**i, block_size=8)
        snapshot = obs_metrics.get_registry().snapshot()
        assert snapshot == {"counters": {"obs.timeline.rows": 4}}

    def test_inactive_when_obs_disabled(self, tmp_path):
        tl.configure_timeline(tmp_path / "timeline.jsonl")
        assert not obs_metrics.obs_enabled()
        assert tl.active_recorder() is None

    def test_forked_workers_label_their_rows(self, tmp_path):
        """The default backend's workers append to the supervisor's
        timeline at the path their attempt spec carries, each row
        labelled with its attempt; the supervisor's environment is left
        alone."""
        import os

        from repro.experiments.__main__ import main
        from repro.runtime.journal import JOURNAL_FILENAME, read_journal

        run_dir = tmp_path / "run"
        argv = ["--quick", "--jobs", "1", "--quiet", "--run-dir", str(run_dir)]
        assert main(argv + ["fig2", "fig4"]) == 0
        starts = {
            record["experiment_id"]: record["attempt_uid"]
            for record in read_journal(run_dir / JOURNAL_FILENAME).records
            if record.get("type") == "attempt-start"
        }
        assert sorted(starts) == ["fig2", "fig4"]
        rows = tl.read_timeline(run_dir / tl.TIMELINE_FILENAME)
        assert {row["experiment_id"] for row in rows} == {"fig2", "fig4"}
        for row in rows:
            assert row["attempt_uid"] == starts[row["experiment_id"]]
            assert row["pid"] != os.getpid()
        assert "REPRO_TIMELINE" not in os.environ

    def test_chunk_refs_policy(self):
        assert tl.window_refs(100) == tl.CHUNK_MIN_REFS
        assert tl.window_refs(64 * 10_000) == 10_000
        assert tl.window_refs(10**9) == tl.CHUNK_MAX_REFS

    def test_write_failure_swallowed(self, tmp_path):
        obs_metrics.set_obs_enabled(True)
        recorder = tl.TimelineRecorder(tmp_path / "no-such-dir" / "t.jsonl")
        assert recorder.record("stackdist", refs=1, ws_blocks=1) is None
        assert recorder.record_many("stackdist", [{"refs": 1, "ws_blocks": 1}] * 3) == 0
        snapshot = obs_metrics.get_registry().snapshot()
        assert snapshot["counters"]["obs.timeline.write_errors"] == 4

    def test_record_many_equals_one_record_per_row(self, tmp_path):
        """A batch writes the rows ``record`` would, in order, and ends
        with the same counters."""
        rows = [
            {"refs": 100, "ws_blocks": ws, "block_size": 8, "counted": 100,
             "misses": [90, 40 + i, 10]}
            for i, ws in enumerate([64] * 4 + [4096] * 4)
        ]
        obs_metrics.set_obs_enabled(True)

        def written(name, write):
            obs_metrics.get_registry().reset()
            recorder = tl.configure_timeline(tmp_path / name)
            tl.set_labels(experiment_id="fig2", attempt_uid="fig2@1.1")
            write(recorder)
            out = [
                {k: v for k, v in row.items() if k not in ("pid", "t_wall")}
                for row in tl.read_timeline(tmp_path / name)
            ]
            return out, obs_metrics.get_registry().snapshot()

        each, each_metrics = written(
            "each.jsonl", lambda r: [r.record("stackdist", **row) for row in rows]
        )
        batch, batch_metrics = written(
            "batch.jsonl", lambda r: r.record_many("stackdist", rows)
        )
        assert batch == each
        assert [row["seq"] for row in batch] == list(range(len(rows)))
        assert batch_metrics == each_metrics


class TestFaultSite:
    def test_repeated_enospc_costs_rows_not_the_campaign(self, tmp_path):
        """Timeline writes go through the I/O fault injector (site
        ``timeline``), and a full disk there only drops rows."""
        from repro.experiments.__main__ import main
        from tests.harness.iofault import IOFaultInjector, install

        argv = ["--quick", "--jobs", "0", "--quiet", "fig2", "--run-dir"]
        assert main(argv + [str(tmp_path / "clean")]) == 0
        injector = IOFaultInjector.parse("timeline:write:enospc:1:repeat")
        with install(injector):
            assert main(argv + [str(tmp_path / "faulted")]) == 0
        assert injector.fired
        assert (tmp_path / "faulted" / "summary.json").read_bytes() == (
            tmp_path / "clean" / "summary.json"
        ).read_bytes()
        metrics = json.loads((tmp_path / "faulted" / "metrics.json").read_text())
        assert metrics["campaign"]["counters"]["obs.timeline.write_errors"] > 0
        assert tl.read_timeline(tmp_path / "faulted" / "timeline.jsonl") == []
        assert tl.read_timeline(tmp_path / "clean" / "timeline.jsonl")


class TestSimulatorHooks:
    def _trace(self, refs=30_000, blocks=512, seed=0):
        from repro.mem.trace import Trace

        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, blocks, size=refs).astype(np.int64) * 8
        kinds = np.zeros(refs, dtype=np.uint8)
        return Trace(addrs, kinds)

    def test_chunked_profile_is_bit_identical(self, tmp_path):
        from repro.mem.stack_distance import StackDistanceRun, profile_trace

        trace = self._trace()
        baseline = profile_trace(trace)

        obs_metrics.set_obs_enabled(True)
        tl.configure_timeline(tmp_path / "timeline.jsonl")
        run = StackDistanceRun()
        run.feed(trace, row_refs=4096)
        chunked = run.result()
        tl.configure_timeline(None)

        assert chunked.total == baseline.total
        rows = tl.read_timeline(tmp_path / "timeline.jsonl")
        assert len(rows) == math.ceil(30_000 / 4096)
        assert all(r["v"] == 2 and "cache_sizes" not in r for r in rows)
        # Per-chunk miss vectors, slot for slot along the ladder, sum
        # exactly to the full-run misses.
        for i, capacity in enumerate(tl.STACKDIST_LADDER):
            summed = sum(r["misses"][i] for r in rows)
            assert summed == baseline.misses_at(capacity // baseline.block_size)
        assert sum(r["counted"] for r in rows) == baseline.total

    def test_profile_rows_under_oracle_tier(self, tmp_path):
        """Rows from the per-reference loop equal the kernel's but for
        their framing, and neither carries a ``tier`` label: the rows
        say what was simulated, not which path simulated it."""
        from repro.mem.stack_distance import StackDistanceRun
        from tests.harness.loops import loops_only

        obs_metrics.set_obs_enabled(True)

        def rows(name, loops):
            tl.configure_timeline(tmp_path / name)
            with loops_only(loops):
                StackDistanceRun().feed(self._trace(), row_refs=8192)
            tl.configure_timeline(None)
            return [
                {k: v for k, v in row.items() if k not in NOT_CONTENT}
                for row in tl.read_timeline(tmp_path / name)
            ]

        loops, vector = rows("loops.jsonl", True), rows("vector.jsonl", False)
        assert loops and loops == vector
        assert all("tier" not in row for row in loops)

    def _labelled_rows(self, tmp_path, simulate):
        """The rows ``simulate()`` writes under a labelled recorder."""
        obs_metrics.set_obs_enabled(True)
        tl.configure_timeline(tmp_path / "timeline.jsonl")
        tl.set_labels(experiment_id="fig6", attempt_uid="fig6@1.1")
        simulate()
        tl.configure_timeline(None)
        return tl.read_timeline(tmp_path / "timeline.jsonl")

    def test_stackdist_rows_carry_exactly_what_readers_read(self, tmp_path):
        from repro.mem.stack_distance import StackDistanceRun

        rows = self._labelled_rows(
            tmp_path, lambda: StackDistanceRun().feed(self._trace(), row_refs=8192)
        )
        assert len(rows) == 4
        for row in rows:
            assert set(row) == ENVELOPE | {
                "refs", "counted", "cold", "block_size", "ws_blocks", "misses",
            }

    def test_setassoc_rows_carry_exactly_what_readers_read(self, tmp_path):
        from repro.mem.setassoc import SetAssociativeCache

        caches = [SetAssociativeCache(blocks * 8) for blocks in (64, 256)]
        trace = self._trace(refs=10_000)
        rows = self._labelled_rows(
            tmp_path, lambda: SetAssociativeCache.run_many(caches, trace)
        )
        assert [row["capacity_bytes"] for row in rows] == [64 * 8, 256 * 8]
        for row, cache in zip(rows, caches):
            assert set(row) == ENVELOPE | {
                "refs", "counted", "cold", "block_size", "capacity_bytes",
                "ws_blocks", "misses_total",
            }
            assert row["misses_total"] == cache.stats.misses
            assert row["ws_blocks"] == len(np.unique(trace.block_ids(8)))

    def test_setassoc_run_records_one_row(self, tmp_path):
        from repro.mem.setassoc import SetAssociativeCache

        obs_metrics.set_obs_enabled(True)
        tl.configure_timeline(tmp_path / "timeline.jsonl")
        cache = SetAssociativeCache(128 * 8, associativity=1)
        stats = cache.run(self._trace(refs=10_000))
        rows = tl.read_timeline(tmp_path / "timeline.jsonl")
        assert len(rows) == 1
        assert rows[0]["kind"] == "setassoc"
        assert rows[0]["misses_total"] == stats.misses

    def test_sweep_rows_equal_per_cache_rows(self, tmp_path, monkeypatch):
        """``run_many`` writes one ``setassoc`` row per cache, equal field
        for field to what each cache's ``run`` writes but for their
        framing, and computes the trace footprint once per sweep."""
        from repro.mem.setassoc import SetAssociativeCache
        from repro.mem.trace import Trace

        def caches():
            return [
                SetAssociativeCache(blocks * 8, associativity=ways)
                for ways in (1, 4)
                for blocks in (64, 256)
            ]

        footprints = []
        footprint = Trace.footprint
        monkeypatch.setattr(
            Trace, "footprint", lambda t, b=8: footprints.append(b) or footprint(t, b)
        )
        trace = self._trace(refs=10_000)
        obs_metrics.set_obs_enabled(True)
        tl.configure_timeline(tmp_path / "sweep.jsonl")
        SetAssociativeCache.run_many(caches(), trace)
        assert len(footprints) == 1
        tl.configure_timeline(tmp_path / "each.jsonl")
        for cache in caches():
            cache.run(trace)
        assert len(footprints) == 5
        tl.configure_timeline(None)

        def rows(name):
            return [
                {k: v for k, v in row.items() if k not in NOT_CONTENT}
                for row in tl.read_timeline(tmp_path / name)
            ]

        sweep = rows("sweep.jsonl")
        assert len(sweep) == 4
        assert [row["kind"] for row in sweep] == ["setassoc"] * 4
        assert sweep == rows("each.jsonl")

    def test_hierarchy_kernel_adds_no_rows(self, tmp_path):
        from repro.mem.hierarchy import CacheHierarchy
        from tests.conftest import count_kernel_calls

        obs_metrics.set_obs_enabled(True)
        tl.configure_timeline(tmp_path / "timeline.jsonl")
        with count_kernel_calls() as calls:
            CacheHierarchy([64 * 8, 256 * 8]).run(self._trace(refs=10_000))
        assert calls["stackdist"] == 2  # one depth pass per level
        assert tl.read_timeline(tmp_path / "timeline.jsonl") == []

    def test_no_rows_without_recorder(self, tmp_path):
        from repro.mem.setassoc import SetAssociativeCache
        from repro.mem.stack_distance import profile_trace

        obs_metrics.set_obs_enabled(True)
        trace = self._trace(refs=5_000)
        profile_trace(trace)
        SetAssociativeCache(1024).run(trace)
        assert not (tmp_path / "timeline.jsonl").exists()


class TestLoadWorkingSet:
    def test_summary_from_run_dir(self, tmp_path):
        path = tmp_path / tl.TIMELINE_FILENAME
        rows = [
            _row(i, ws_blocks=100, experiment_id="fig6", attempt_uid="fig6@1.1")
            for i in range(6)
        ]
        rows += [
            _row(6 + i, ws_blocks=5000, experiment_id="fig6", attempt_uid="fig6@1.1")
            for i in range(6)
        ]
        _write_rows(path, rows)
        summary = tl.load_working_set(tmp_path)
        assert summary["phases"] == 2
        assert summary["phase"] == 2
        assert summary["experiment_id"] == "fig6"
        assert summary["rows"] == 12

    def test_none_without_timeline(self, tmp_path):
        assert tl.load_working_set(tmp_path) is None

    def test_status_renders_working_set_line(self, tmp_path):
        from repro.obs.status import load_status, render_status

        path = tmp_path / tl.TIMELINE_FILENAME
        _write_rows(
            path,
            [_row(i, ws_blocks=200, experiment_id="fig2") for i in range(4)],
        )
        status = load_status(tmp_path)
        assert status.working_set is not None
        text = render_status(status)
        assert "working set: phase 1/1" in text
        assert "fig2" in text

    def test_status_tolerates_damaged_timeline(self, tmp_path):
        from repro.obs.status import load_status, render_status

        (tmp_path / tl.TIMELINE_FILENAME).write_bytes(b"\x00\xff garbage")
        status = load_status(tmp_path)
        render_status(status)  # must not raise


def _report_section(run_dir):
    from repro.obs.report import render_report

    text = render_report(run_dir)
    start = text.index("## Temporal working sets")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


class TestLegacyTimeline:
    """Version 1 rows (with ``cache_sizes``) read the same as the same
    rows rewritten in version 2 (without); version 2 rows of earlier
    versions, with fields no reader reads and a ``fullassoc`` row, read
    the same as those rows without the fields."""

    def _run_dirs(self, tmp_path):
        from tests.conftest import LEGACY_TIMELINE

        legacy = tl.read_timeline(LEGACY_TIMELINE)
        assert legacy and all(row["v"] == 1 for row in legacy)
        stackdist = [row for row in legacy if row["kind"] == "stackdist"]
        assert all(
            row["cache_sizes"] == list(tl.STACKDIST_LADDER) for row in stackdist
        )
        v1, v2 = tmp_path / "v1", tmp_path / "v2"
        for run_dir in (v1, v2):
            run_dir.mkdir()
        (v1 / tl.TIMELINE_FILENAME).write_bytes(LEGACY_TIMELINE.read_bytes())
        _write_rows(
            v2 / tl.TIMELINE_FILENAME,
            [
                {**{k: v for k, v in row.items() if k != "cache_sizes"}, "v": 2}
                for row in legacy
            ],
        )
        return v1, v2

    def test_load_working_set_reads_both_formats_alike(self, tmp_path):
        v1, v2 = self._run_dirs(tmp_path)
        summary = tl.load_working_set(v1)
        assert summary is not None and summary["knee_bytes"] is not None
        assert tl.load_working_set(v2) == summary

    def test_report_phase_tables_read_both_formats_alike(self, tmp_path):
        v1, v2 = self._run_dirs(tmp_path)
        tables = _report_section(v1)
        assert "### fig5: 3 phase(s)" in tables
        assert "End-of-run knee(s)" in tables
        assert _report_section(v2) == tables

    #: Fields earlier version 2 writers added that no reader reads.
    DROPPED = (
        "depth_p50", "depth_p90", "depth_p99", "footprint_blocks",
        "elapsed_s", "refs_per_second",
    )

    def _v2_run_dirs(self, tmp_path):
        from tests.conftest import LEGACY_TIMELINE_V2

        legacy = tl.read_timeline(LEGACY_TIMELINE_V2)
        assert legacy and all(row["v"] == 2 for row in legacy)
        assert [row["kind"] for row in legacy] == ["fullassoc"] + ["stackdist"] * 17
        assert all(
            {"depth_p50", "footprint_blocks", "elapsed_s"} <= set(row)
            for row in legacy[1:]
        )
        old, trimmed = tmp_path / "old", tmp_path / "trimmed"
        for run_dir in (old, trimmed):
            run_dir.mkdir()
        (old / tl.TIMELINE_FILENAME).write_bytes(LEGACY_TIMELINE_V2.read_bytes())
        _write_rows(
            trimmed / tl.TIMELINE_FILENAME,
            [
                {k: v for k, v in row.items() if k not in self.DROPPED}
                for row in legacy
            ],
        )
        return old, trimmed

    def test_load_working_set_ignores_the_dropped_fields(self, tmp_path):
        old, trimmed = self._v2_run_dirs(tmp_path)
        summary = tl.load_working_set(old)
        assert summary["experiment_id"] == "fig5" and summary["phases"] == 3
        assert tl.load_working_set(trimmed) == summary

    def test_report_phase_tables_ignore_the_dropped_fields(self, tmp_path):
        old, trimmed = self._v2_run_dirs(tmp_path)
        tables = _report_section(old)
        assert "### fig5: 3 phase(s)" in tables
        assert "### fullassoc-demo: 1 phase(s)" in tables
        assert _report_section(trimmed) == tables


class TestValidateCodes:
    def test_clean_file_passes(self, tmp_path):
        from repro.validate.artifacts import validate_timeline_file

        path = tmp_path / "timeline.jsonl"
        _write_rows(path, [_row(i) for i in range(5)])
        report = validate_timeline_file(path)
        assert report.ok
        assert report.findings == []

    def test_timeline_torn_midfile_is_error(self, tmp_path):
        from repro.validate.artifacts import validate_timeline_file

        path = tmp_path / "timeline.jsonl"
        path.write_bytes(
            _frame(_row(0)) + b"junk\n" + _frame(_row(1))
        )
        report = validate_timeline_file(path)
        assert not report.ok
        assert [f.code for f in report.findings] == ["timeline-torn"]

    def test_timeline_torn_tail_is_warning(self, tmp_path):
        from repro.validate.artifacts import validate_timeline_file

        path = tmp_path / "timeline.jsonl"
        path.write_bytes(_frame(_row(0)) + b"TLN1 0bad {")
        report = validate_timeline_file(path)
        assert report.ok  # warning only
        assert [f.code for f in report.findings] == ["timeline-torn"]
        assert report.findings[0].severity == "warning"

    def test_timeline_schema_flags_bad_row(self, tmp_path):
        from repro.validate.artifacts import validate_timeline_file

        bad = _row(0)
        bad["kind"] = "bogus"
        del bad["refs"]
        path = tmp_path / "timeline.jsonl"
        _write_rows(path, [bad])
        report = validate_timeline_file(path)
        assert not report.ok
        assert {f.code for f in report.findings} == {"timeline-schema"}

    def test_timeline_schema_flags_ladder_mismatch(self, tmp_path):
        from repro.validate.artifacts import validate_timeline_file

        path = tmp_path / "timeline.jsonl"
        ladder = len(tl.STACKDIST_LADDER)
        _write_rows(
            path,
            [
                # Version 1: the row's own ladder.
                _row(0, cache_sizes=[64, 128], misses=[5]),
                # Version 2: the module ladder, one slot short.
                _row(1, v=2, misses=[5] * (ladder - 1)),
                _row(2, v=2, misses=[5] * ladder),
            ],
        )
        report = validate_timeline_file(path)
        assert not report.ok
        flagged = [
            f.message
            for f in report.findings
            if f.code == "timeline-schema" and "miss slot" in f.message
        ]
        assert [m.split(":")[0] for m in flagged] == ["record 1", "record 2"]
        assert f"for {ladder} capacity" in flagged[1]

    def test_run_dir_validation_includes_timeline(self, tmp_path):
        from repro.validate.artifacts import validate_run_dir

        run_dir = tmp_path / "run"
        run_dir.mkdir()
        path = run_dir / "timeline.jsonl"
        path.write_bytes(
            _frame(_row(0)) + b"junk\n" + _frame(_row(1))
        )
        report = validate_run_dir(run_dir)
        assert "timeline-torn" in {f.code for f in report.findings}

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_validator_never_raises_on_mutation(self, tmp_path, mutation):
        from repro.validate.artifacts import validate_timeline_file

        path = tmp_path / "timeline.jsonl"
        _write_rows(path, [_row(i) for i in range(12)])
        rng = np.random.default_rng(3)
        path.write_bytes(MUTATIONS[mutation](path.read_bytes(), rng))
        validate_timeline_file(path)  # must not raise
