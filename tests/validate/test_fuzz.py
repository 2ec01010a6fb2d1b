"""Tests for the deterministic artifact-reader fuzzer (tests/harness/fuzz.py)."""

from __future__ import annotations

import pytest

from tests.harness.fuzz import (
    ACCEPTED_DIVERGENT,
    ACCEPTED_PREFIX,
    MUTATIONS,
    REJECTED,
    UNEXPECTED_ERROR,
    FuzzCase,
    FuzzReport,
    run_fuzz,
)


class TestCampaign:
    def test_smoke_campaign_holds_the_contract(self):
        report = run_fuzz(cases=120, seed=0)
        assert report.ok, report.render()
        assert len(report.cases) == 120
        # Corrupting readers must actually reject things, not just
        # accept everything.
        assert report.counts.get(REJECTED, 0) > 0

    def test_campaign_is_a_pure_function_of_seed(self):
        first = run_fuzz(cases=40, seed=7)
        second = run_fuzz(cases=40, seed=7)
        assert first.cases == second.cases

    def test_different_seeds_differ(self):
        a = run_fuzz(cases=40, seed=1)
        b = run_fuzz(cases=40, seed=2)
        assert a.cases != b.cases

    def test_all_targets_exercised(self):
        report = run_fuzz(cases=120, seed=0)
        assert {c.target for c in report.cases} == {
            "trace",
            "checkpoint",
            "events",
        }
        assert {c.mutation for c in report.cases} == set(MUTATIONS)

    def test_explicit_work_dir_is_not_deleted(self, tmp_path):
        work = tmp_path / "scratch"
        report = run_fuzz(cases=10, seed=0, work_dir=work)
        assert report.ok
        assert work.is_dir()


class TestReportSemantics:
    def _case(self, classification, target="trace", index=0):
        return FuzzCase(
            index=index,
            target=target,
            mutation="bitflip",
            classification=classification,
            detail="d",
        )

    def test_unexpected_error_is_a_problem(self):
        report = FuzzReport(seed=0, cases=[self._case(UNEXPECTED_ERROR)])
        assert not report.ok
        validation = report.to_validation_report()
        assert validation.codes() == ["fuzz-unexpected-error"]

    def test_divergence_on_checksummed_target_is_a_problem(self):
        report = FuzzReport(
            seed=0, cases=[self._case(ACCEPTED_DIVERGENT, target="trace")]
        )
        assert not report.ok
        assert report.to_validation_report().codes() == [
            "fuzz-silent-corruption"
        ]

    def test_only_a_record_prefix_is_tolerated_on_events(self):
        report = FuzzReport(
            seed=0, cases=[self._case(ACCEPTED_PREFIX, target="events")]
        )
        assert report.ok
        assert report.to_validation_report().ok
        # The event log is CRC-framed: any other divergence is silent
        # corruption, as for every checksummed target.
        report = FuzzReport(
            seed=0, cases=[self._case(ACCEPTED_DIVERGENT, target="events")]
        )
        assert not report.ok
        assert report.to_validation_report().codes() == [
            "fuzz-silent-corruption"
        ]

    def test_render_mentions_verdict(self):
        report = FuzzReport(seed=3, cases=[self._case(REJECTED)])
        text = report.render()
        assert "PASS" in text and "seed 3" in text
        report.cases.append(self._case(UNEXPECTED_ERROR, index=1))
        assert "FAIL" in report.render()
