"""Tests for the cross-campaign perf archive (repro.obs.archive)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.obs import archive as ar
from repro.obs import timeline as tl
from repro.runtime import records

from tests.harness.fuzz import MUTATIONS

ATTR = {
    "git_sha": "a" * 40,
    "timestamp": "2026-08-08T12:00:00+0000",
    "hostname": "testhost",
}


def _row(rate=100.0, series="bench:x", **extra):
    row = {
        "v": ar.ARCHIVE_VERSION,
        "kind": "bench",
        "series": series,
        "refs_per_second": rate,
    }
    row.update(ATTR)
    row.update(extra)
    return row


def _compare_baseline():
    path = (
        Path(__file__).resolve().parents[2]
        / "benchmarks"
        / "compare_baseline.py"
    )
    spec = importlib.util.spec_from_file_location("compare_baseline", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAttribution:
    def test_attribution_has_timestamp_and_hostname(self):
        attr = ar.attribution()
        assert attr["hostname"]
        assert "T" in attr["timestamp"]

    def test_git_sha_resolves_in_this_repo(self):
        sha = ar.git_sha(Path(__file__).resolve().parents[2])
        assert sha is None or len(sha) == 40

    def test_is_attributed(self):
        assert ar.is_attributed(_row())
        short = _row()
        del short["git_sha"]
        assert not ar.is_attributed(short)


class TestAppendScan:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / ar.ARCHIVE_FILENAME
        rows = [_row(100.0), _row(90.0)]
        assert ar.append_rows(path, rows) == 2
        assert ar.read_archive(path) == rows

    def test_refuses_unattributed_rows(self, tmp_path):
        path = tmp_path / ar.ARCHIVE_FILENAME
        bad = _row()
        del bad["git_sha"]
        with pytest.raises(ValueError, match="git_sha"):
            ar.append_rows(path, [bad])
        assert not path.exists()

    def test_scan_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / ar.ARCHIVE_FILENAME
        ar.append_rows(path, [_row()])
        with open(path, "ab") as handle:
            handle.write(b"PFA1 0000 {torn")
        scan = records.scan(path, ar.ARCHIVE_MAGIC)
        assert len(scan.records) == 1
        assert scan.torn_tail

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_scan_never_raises_on_mutation(self, tmp_path, mutation):
        path = tmp_path / ar.ARCHIVE_FILENAME
        ar.append_rows(path, [_row(100.0 + i) for i in range(10)])
        rng = np.random.default_rng(11)
        path.write_bytes(MUTATIONS[mutation](path.read_bytes(), rng))
        records.scan(path, ar.ARCHIVE_MAGIC)  # must not raise
        from repro.validate.artifacts import validate_archive_file

        validate_archive_file(path)  # must not raise


class TestDetectRegressions:
    def test_single_row_is_baseline(self):
        findings = ar.detect_regressions([_row(100.0)])
        assert len(findings) == 1
        assert findings[0]["note"] == "insufficient history"
        assert not findings[0]["regression"]

    def test_twenty_pct_drop_flagged_against_three_rows(self):
        rows = [_row(100.0), _row(101.0), _row(99.0), _row(80.0)]
        findings = ar.detect_regressions(rows)
        assert len(findings) == 1
        assert findings[0]["regression"]
        assert findings[0]["drop_pct"] == pytest.approx(20.0, abs=1.0)

    def test_improvement_not_flagged(self):
        rows = [_row(100.0), _row(101.0), _row(130.0)]
        findings = ar.detect_regressions(rows)
        assert not findings[0]["regression"]

    def test_noisy_series_needs_larger_drop(self):
        # History swings +-40%: a 15% dip is inside the noise band.
        rows = [_row(r) for r in (60.0, 140.0, 70.0, 130.0, 100.0, 85.0)]
        findings = ar.detect_regressions(rows)
        assert not findings[0]["regression"]

    def test_series_are_independent(self):
        rows = [_row(100.0), _row(100.0), _row(50.0)]
        rows += [_row(200.0, series="bench:y"), _row(201.0, series="bench:y")]
        findings = {f["series"]: f for f in ar.detect_regressions(rows)}
        assert findings["bench:x"]["regression"]
        assert not findings["bench:y"]["regression"]

    def test_render_trends_mentions_regression(self):
        rows = [_row(100.0), _row(100.0), _row(50.0)]
        text = ar.render_trends(ar.detect_regressions(rows))
        assert "REGRESSION" in text
        assert "1 regression(s) across 1 series" in text


class TestBenchRows:
    def _payload(self, with_attr=True):
        entry = {
            "name": "bench_x",
            "fullname": "benchmarks/bench_x.py::bench_x",
            "group": None,
            "stats": {"mean": 0.5},
            "extra_info": {"refs_per_second": 1000.0},
        }
        if with_attr:
            entry["attribution"] = dict(ATTR)
        return {"benchmarks": [entry]}

    def test_bench_rows_copy_attribution_and_metrics(self):
        rows = ar.bench_rows(self._payload())
        assert len(rows) == 1
        row = rows[0]
        assert row["series"] == "bench:bench_x"
        assert row["git_sha"] == ATTR["git_sha"]
        assert row["refs_per_second"] == 1000.0
        assert row["mean_seconds"] == 0.5
        assert ar.is_attributed(row)

    def test_bench_rows_without_attribution_are_unattributed(self):
        rows = ar.bench_rows(self._payload(with_attr=False))
        assert rows and not ar.is_attributed(rows[0])

    def test_compare_baseline_archives_attributed_rows(self, tmp_path, capsys):
        mod = _compare_baseline()
        current = tmp_path / "BENCH_results.json"
        current.write_text(json.dumps(self._payload()))
        archive = tmp_path / "perf-archive.jsonl"
        assert mod.archive_current(current, archive) == 0
        assert len(ar.read_archive(archive)) == 1
        assert "baseline (first row)" in capsys.readouterr().out

    def test_compare_baseline_refuses_unattributed(self, tmp_path, capsys):
        mod = _compare_baseline()
        current = tmp_path / "BENCH_results.json"
        current.write_text(json.dumps(self._payload(with_attr=False)))
        archive = tmp_path / "perf-archive.jsonl"
        assert mod.archive_current(current, archive) == 2
        assert not archive.exists()
        assert "refusing" in capsys.readouterr().err


class TestCampaignRows:
    def test_empty_run_dir_yields_no_rows(self, tmp_path):
        assert ar.campaign_rows(tmp_path) == []

    def test_campaign_row_from_run_dir(self, tmp_path):
        from tests.obs.test_status import run_campaign
        from tests.runtime.conftest import FakeExperiment

        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        rows = ar.campaign_rows(run_dir)
        assert len(rows) == 1
        row = rows[0]
        assert row["kind"] == "campaign"
        assert row["series"] == "campaign:a"
        assert row["experiments"] == ["a"]
        assert ar.is_attributed(row) or "git_sha" not in row

    def test_campaign_row_carries_phases_from_timeline(self, tmp_path):
        from tests.obs.test_status import run_campaign
        from tests.runtime.conftest import FakeExperiment

        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        rows = []
        for i in range(6):
            rows.append(
                {
                    "v": 1,
                    "kind": "stackdist",
                    "seq": i,
                    "pid": 1,
                    "t_wall": float(i),
                    "refs": 4096,
                    "counted": 4096,
                    "block_size": 8,
                    "ws_blocks": 100 if i < 3 else 5000,
                    "experiment_id": "a",
                    "attempt_uid": "a@1.1",
                }
            )
        with open(run_dir / tl.TIMELINE_FILENAME, "wb") as handle:
            for row in rows:
                handle.write(records.frame(tl.TIMELINE_MAGIC, row))
        row = ar.campaign_rows(run_dir)[0]
        assert row["phases"] == {"a": 2}


class TestTrendsCommand:
    def test_missing_archive_is_usage_error(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["trends", str(tmp_path / "none.jsonl")]) == 2

    def test_first_row_exits_zero(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = tmp_path / "perf-archive.jsonl"
        ar.append_rows(path, [_row(100.0)])
        assert main(["trends", str(path)]) == 0
        assert "baseline (first row)" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = tmp_path / "perf-archive.jsonl"
        ar.append_rows(path, [_row(100.0), _row(101.0), _row(99.0), _row(75.0)])
        assert main(["trends", str(path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = tmp_path / "perf-archive.jsonl"
        ar.append_rows(path, [_row(100.0), _row(90.0)])
        assert main(["trends", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 2
        assert payload["findings"][0]["series"] == "bench:x"

    def test_archive_flag_requires_run_dir(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--archive", "x.jsonl", "--experiments", "fig2"]) == 2


class TestValidateArchiveCodes:
    def test_clean_archive_passes(self, tmp_path):
        from repro.validate.artifacts import validate_archive_file

        path = tmp_path / ar.ARCHIVE_FILENAME
        ar.append_rows(path, [_row(100.0)])
        report = validate_archive_file(path)
        assert report.ok
        assert report.findings == []

    def test_archive_corrupt_midfile_is_error(self, tmp_path):
        from repro.validate.artifacts import validate_archive_file

        path = tmp_path / ar.ARCHIVE_FILENAME
        good = records.frame(ar.ARCHIVE_MAGIC, _row())
        path.write_bytes(good + b"junk\n" + good)
        report = validate_archive_file(path)
        assert not report.ok
        assert [f.code for f in report.findings] == ["archive-corrupt"]

    def test_archive_torn_tail_is_warning(self, tmp_path):
        from repro.validate.artifacts import validate_archive_file

        path = tmp_path / ar.ARCHIVE_FILENAME
        ar.append_rows(path, [_row()])
        with open(path, "ab") as handle:
            handle.write(b"PFA1 bad {")
        report = validate_archive_file(path)
        assert report.ok
        assert report.findings[0].severity == "warning"

    def test_unattributed_row_flagged(self, tmp_path):
        from repro.validate.artifacts import validate_archive_file

        bad = _row()
        del bad["git_sha"]
        path = tmp_path / ar.ARCHIVE_FILENAME
        path.write_bytes(records.frame(ar.ARCHIVE_MAGIC, bad))
        report = validate_archive_file(path)
        assert not report.ok
        assert any("unattributed" in f.message for f in report.findings)

    def test_schema_violation_flagged(self, tmp_path):
        from repro.validate.artifacts import validate_archive_file

        bad = _row()
        bad["kind"] = "mystery"
        path = tmp_path / ar.ARCHIVE_FILENAME
        path.write_bytes(records.frame(ar.ARCHIVE_MAGIC, bad))
        report = validate_archive_file(path)
        assert not report.ok
        assert {f.code for f in report.findings} == {"archive-corrupt"}
