"""Tests for the typed finding/report machinery."""

from __future__ import annotations

import pytest

from repro.runtime.errors import ResultRejectedError, ValidationError
from repro.validate.report import (
    SEVERITY_WARNING,
    Finding,
    ValidationReport,
    merge_reports,
)


class TestFinding:
    def test_render_includes_code_and_path(self):
        finding = Finding(
            code="checkpoint-corrupt", message="boom", path="results/a.json"
        )
        text = finding.render()
        assert "checkpoint-corrupt" in text
        assert "results/a.json" in text
        assert text.startswith("ERROR")

    def test_render_without_path(self):
        assert "[" not in Finding(code="x", message="m").render()

    def test_to_dict_round_trip_fields(self):
        finding = Finding(
            code="c", message="m", path="p", severity=SEVERITY_WARNING
        )
        assert finding.to_dict() == {
            "code": "c",
            "message": "m",
            "path": "p",
            "severity": "warning",
        }


class TestValidationReport:
    def test_empty_report_is_ok(self):
        report = ValidationReport(subject="s")
        assert report.ok
        assert report.errors == []
        assert "PASS" in report.render()

    def test_error_findings_fail(self):
        report = ValidationReport(subject="s")
        report.add("code-a", "first")
        assert not report.ok
        assert "FAIL" in report.render()

    def test_warnings_do_not_fail(self):
        report = ValidationReport(subject="s")
        report.add("code-w", "soft", severity=SEVERITY_WARNING)
        assert report.ok
        assert len(report.warnings) == 1

    def test_codes_first_seen_order_and_by_code(self):
        report = ValidationReport(subject="s")
        report.add("b", "1")
        report.add("a", "2")
        report.add("b", "3")
        assert report.codes() == ["b", "a"]
        assert len(report.by_code("b")) == 2

    def test_tick_and_extend_accumulate(self):
        first = ValidationReport(subject="a")
        first.tick(3)
        second = ValidationReport(subject="b")
        second.tick()
        second.add("x", "y")
        first.extend(second)
        assert first.checks_run == 4
        assert first.codes() == ["x"]

    def test_raise_if_failed_noop_when_ok(self):
        ValidationReport(subject="s").raise_if_failed()

    def test_raise_if_failed_default_exception(self):
        report = ValidationReport(subject="subj")
        report.add("bad-thing", "details here")
        with pytest.raises(ValidationError, match="bad-thing"):
            report.raise_if_failed()

    def test_raise_if_failed_custom_exception_and_truncation(self):
        report = ValidationReport(subject="subj")
        for i in range(8):
            report.add(f"code-{i}", f"message {i}")
        with pytest.raises(ResultRejectedError, match="and 3 more"):
            report.raise_if_failed(ResultRejectedError)

    def test_to_dict_shape(self):
        report = ValidationReport(subject="s")
        report.add("c", "m")
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["findings"][0]["code"] == "c"


def test_merge_reports_combines_sections():
    one = ValidationReport(subject="one")
    one.tick(2)
    two = ValidationReport(subject="two")
    two.add("z", "zz")
    merged = merge_reports("all", [one, two])
    assert merged.subject == "all"
    assert merged.checks_run == 2
    assert not merged.ok
