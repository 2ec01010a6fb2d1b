"""Tests for the campaign report and the status/report CLI commands."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs.report import render_report, render_report_html, report_to_json
from repro.obs.tracing import SPANS_MAGIC
from repro.runtime.records import frame

from tests.harness.fuzz import MUTATIONS
from tests.obs.test_status import run_campaign
from tests.runtime.conftest import FakeExperiment


class TestRenderReport:
    def test_completed_campaign_sections(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a"), FakeExperiment("b")])
        text = render_report(run_dir)
        assert text.startswith("# Campaign report:")
        assert "campaign state **complete**" in text
        assert "## Overview" in text
        assert "## Experiment timings" in text
        assert "## Retries, faults, and validation" in text
        assert "## Results" in text
        assert "## Metrics rollup" in text
        assert "## Spans" in text
        assert "### a: fake a" in text
        assert "### b: fake b" in text

    def test_retry_story_counted(self, tmp_path):
        from repro.runtime.errors import SimulationError

        run_dir = tmp_path / "run"
        run_campaign(
            run_dir,
            [FakeExperiment("flaky", fail_times=1, error=SimulationError("x"))],
            max_attempts=2,
        )
        text = render_report(run_dir)
        assert "| retries | 1 |" in text
        assert "| failed attempts | 1 |" in text
        assert "| simulation | 1 |" in text

    def test_curve_and_comparison_tables(self, tmp_path):
        from repro.core.curves import MissRateCurve
        from repro.experiments.runner import SeriesComparison

        run_dir = tmp_path / "run"
        exp = FakeExperiment("figX")

        original_run = exp.run

        def run_with_artifacts(**kwargs):
            result = original_run(**kwargs)
            result.comparisons.append(
                SeriesComparison(
                    quantity="knee",
                    paper_value=64.0,
                    measured_value=64.0,
                    unit="KB",
                )
            )
            result.curves.append(
                MissRateCurve(
                    capacities=np.array([1024.0, 2048.0]),
                    miss_rates=np.array([0.2, 0.1]),
                    label="lu p=16",
                )
            )
            return result

        exp.run = run_with_artifacts
        run_campaign(run_dir, [exp])
        text = render_report(run_dir)
        assert "| knee | 64" in text
        assert "| lu p=16 | 2 | 0.1 | 0.2 |" in text

    def test_spans_and_metrics_sections_render(self, tmp_path):
        from repro.obs.metrics import METRICS_FORMAT

        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
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
        (run_dir / "metrics.json").write_text(
            json.dumps(
                {
                    "format": METRICS_FORMAT,
                    "written_wall": 1.0,
                    "trace_id": "t",
                    "campaign": {
                        "counters": {"engine.attempts": 1},
                        "gauges": {},
                        "histograms": {},
                    },
                    "attempts": {
                        "a-1-2": {"rss_peak_kb": 2048, "spans": 3},
                    },
                }
            )
        )
        text = render_report(run_dir)
        assert "| engine.attempts | 1 |" in text
        assert "| a-1-2 | 2,048 | 3 |" in text
        assert "campaign.run" in text

    def test_html_wraps_and_escapes(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        html = render_report_html(run_dir)
        assert html.startswith("<!DOCTYPE html>")
        assert "<title>Campaign report:" in html
        assert "&lt;" not in render_report(run_dir)  # sanity: markdown is plain

    def test_json_form_carries_status_and_tallies(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        payload = json.loads(report_to_json(run_dir))
        assert payload["state"] == "complete"
        assert payload["experiments"]["a"]["state"] == "ok"
        assert payload["event_tallies"]["finish"] == 1

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutated_events_never_break_the_report(self, tmp_path, mutation):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        target = run_dir / "events.jsonl"
        rng = np.random.default_rng(11)
        target.write_bytes(MUTATIONS[mutation](target.read_bytes(), rng))
        text = render_report(run_dir)
        assert text.startswith("# Campaign report:")


class TestCli:
    def _campaign(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        return run_dir

    def test_status_command(self, tmp_path, capsys):
        from repro.experiments.__main__ import status_command

        run_dir = self._campaign(tmp_path)
        assert status_command([str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "== campaign status:" in out
        assert "state: complete" in out

    def test_status_command_json(self, tmp_path, capsys):
        from repro.experiments.__main__ import status_command

        run_dir = self._campaign(tmp_path)
        assert status_command([str(run_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "complete"

    def test_status_command_rejects_bad_inputs(self, tmp_path, capsys):
        from repro.experiments.__main__ import status_command

        assert status_command([str(tmp_path / "nope")]) == 2
        run_dir = self._campaign(tmp_path)
        assert status_command([str(run_dir), "--follow", "--interval", "0"]) == 2

    def test_report_command_stdout_and_file(self, tmp_path, capsys):
        from repro.experiments.__main__ import report_command

        run_dir = self._campaign(tmp_path)
        assert report_command([str(run_dir)]) == 0
        assert "# Campaign report:" in capsys.readouterr().out

        out_file = tmp_path / "report.html"
        assert report_command([str(run_dir), "--html", "-o", str(out_file)]) == 0
        assert out_file.read_text().startswith("<!DOCTYPE html>")

    def test_report_command_rejects_conflicting_formats(self, tmp_path):
        from repro.experiments.__main__ import report_command

        run_dir = self._campaign(tmp_path)
        assert report_command([str(run_dir), "--html", "--json"]) == 2

    def test_subcommands_registered(self):
        from repro.experiments.__main__ import SUBCOMMANDS

        assert "status" in SUBCOMMANDS
        assert "report" in SUBCOMMANDS


class TestTemporalWorkingSets:
    """The per-phase knee table and the HTML sparkline section."""

    def _timeline(self, run_dir, experiment_id="fig6"):
        from repro.obs import timeline as tl

        sizes = [1024, 2048, 4096, 8192]
        rows = []
        for i in range(12):
            small = i < 6
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
                    "ws_blocks": 120 if small else 5000,
                    "cache_sizes": sizes,
                    "misses": [400, 50, 40, 30] if small else [4000, 3900, 3800, 500],
                }
            )
            rows[-1]["experiment_id"] = experiment_id
            rows[-1]["attempt_uid"] = f"{experiment_id}@1.1"
        run_dir.mkdir(exist_ok=True)
        with open(run_dir / tl.TIMELINE_FILENAME, "wb") as handle:
            for row in rows:
                handle.write(frame(tl.TIMELINE_MAGIC, row))

    def test_markdown_has_per_phase_knee_table(self, tmp_path):
        run_dir = tmp_path / "run"
        self._timeline(run_dir)
        text = render_report(run_dir)
        assert "## Temporal working sets" in text
        assert "### fig6: 2 phase(s) over 12 chunk(s)" in text
        assert "| phase | chunks | refs | ws estimate | knee(s) | miss rate |" in text
        assert "End-of-run" in text

    def test_per_phase_knees_differ_from_end_of_run(self, tmp_path):
        """The whole point: phase knees the aggregate curve cannot show."""
        from repro.obs import timeline as tl

        run_dir = tmp_path / "run"
        self._timeline(run_dir)
        rows = tl.read_timeline(run_dir / tl.TIMELINE_FILENAME)
        phases = tl.detect_phases(tl.latest_attempt_rows(rows))
        per_phase = [
            [int(k.capacity_bytes) for k in phase.knees()] for phase in phases
        ]
        assert per_phase[0] != per_phase[1]

    def test_report_without_timeline_degrades(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        text = render_report(run_dir)
        assert "No readable `timeline.jsonl`" in text

    def test_html_contains_raw_svg_sparklines(self, tmp_path):
        run_dir = tmp_path / "run"
        self._timeline(run_dir)
        html = render_report_html(run_dir)
        assert "<svg" in html
        assert "Timeline sparklines" in html
        assert "working set per chunk" in html
        assert "miss rate per chunk" in html
        # The markdown body itself stays escaped.
        assert "&lt;" not in html.split("<section", 1)[1]

    def test_html_without_timeline_has_no_svg(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(run_dir, [FakeExperiment("a")])
        html = render_report_html(run_dir)
        assert "<svg" not in html

    def test_sparkline_svg_helper(self):
        from repro.obs.report import _sparkline_svg

        assert _sparkline_svg([]) == ""
        assert _sparkline_svg([1.0]) == ""
        svg = _sparkline_svg([1.0, 5.0, 2.0])
        assert svg.startswith("<svg")
        assert "polyline" in svg
        # Flat series must not divide by zero.
        assert _sparkline_svg([3.0, 3.0, 3.0]).startswith("<svg")
