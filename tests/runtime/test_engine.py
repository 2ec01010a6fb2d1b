"""Tests for the fault-tolerant campaign engine: isolation, retry with
degradation, budgets, checkpoints, and resume."""

import pytest

from repro.runtime.budget import Budget
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.engine import (
    CampaignEngine,
    CampaignReport,
    EngineConfig,
    ExperimentOutcome,
)
from repro.runtime.errors import (
    AnalysisError,
    SimulationError,
    TraceGenerationError,
    classify_exception,
)

from tests.harness.faulty import arm, fault
from tests.runtime.conftest import FakeClock, FakeExperiment, SleepRecorder


def make_engine(experiments, fake_clock, sleep_recorder, **config_kwargs):
    registry = {exp.experiment_id: (exp, {"n": 1000}) for exp in experiments}
    overrides = {exp.experiment_id: {"n": 10} for exp in experiments}
    # FakeExperiment instances are not importable by reference, so these
    # tests exercise the in-process backend (jobs=0); the subprocess
    # backend is covered by tests/runtime/test_workers.py.
    config_kwargs.setdefault("jobs", 0)
    config = EngineConfig(
        sleep=sleep_recorder,
        clock=fake_clock,
        backoff_base_seconds=0.5,
        backoff_factor=2.0,
        **config_kwargs,
    )
    return CampaignEngine(registry, quick_overrides=overrides, config=config)


class TestClassification:
    def test_taxonomy_members_classify_as_themselves(self):
        assert classify_exception(SimulationError("x")) is SimulationError

    def test_traceback_attribution(self):
        from repro.mem.cache import FullyAssociativeCache

        try:
            FullyAssociativeCache(-1)
        except ValueError as exc:
            assert classify_exception(exc) is SimulationError

    def test_apps_layer_attribution(self):
        from repro.apps.lu.trace import LUTraceGenerator

        try:
            LUTraceGenerator(n=-5, block_size=8, num_processors=4)
        except Exception as exc:
            assert classify_exception(exc) in (
                TraceGenerationError,
                AnalysisError,
            )

    def test_plain_exception_defaults_to_analysis(self):
        try:
            raise KeyError("no frames in repro layers")
        except KeyError as exc:
            assert classify_exception(exc) is AnalysisError


class TestIsolationAndRetry:
    def test_healthy_campaign_all_ok(self, fake_clock, sleep_recorder):
        exps = [FakeExperiment("a"), FakeExperiment("b")]
        report = make_engine(exps, fake_clock, sleep_recorder).run()
        assert report.ok_ids == ["a", "b"]
        assert report.succeeded
        assert report.outcome("a").result.experiment_id == "a"

    def test_one_crash_does_not_abort_campaign(self, fake_clock, sleep_recorder):
        exps = [
            FakeExperiment("a", fail_times=99, error=SimulationError("dead")),
            FakeExperiment("b"),
        ]
        report = make_engine(exps, fake_clock, sleep_recorder).run()
        assert report.failed_ids == ["a"]
        assert report.ok_ids == ["b"]
        assert not report.succeeded

    def test_retry_degrades_to_quick_parameters(self, fake_clock, sleep_recorder):
        exp = FakeExperiment("a", fail_times=1)
        report = make_engine([exp], fake_clock, sleep_recorder).run()
        outcome = report.outcome("a")
        assert outcome.status == "degraded"
        assert exp.calls == [{"n": 1000}, {"n": 10}]
        assert any("DEGRADED" in note for note in outcome.result.notes)
        assert outcome.failures[0].attempt == 1
        assert not outcome.failures[0].degraded

    def test_exponential_backoff_between_attempts(self, fake_clock, sleep_recorder):
        exp = FakeExperiment("a", fail_times=2)
        make_engine([exp], fake_clock, sleep_recorder, max_attempts=3).run()
        assert sleep_recorder.calls == [0.5, 1.0]

    def test_no_sleep_after_final_attempt(self, fake_clock, sleep_recorder):
        exp = FakeExperiment("a", fail_times=99)
        make_engine([exp], fake_clock, sleep_recorder, max_attempts=2).run()
        assert sleep_recorder.calls == [0.5]

    def test_failure_records_capture_taxonomy(self, fake_clock, sleep_recorder):
        exp = FakeExperiment("a", fail_times=99, error=SimulationError("boom"))
        report = make_engine([exp], fake_clock, sleep_recorder, max_attempts=2).run()
        failures = report.outcome("a").failures
        assert [f.category for f in failures] == ["simulation", "simulation"]
        assert failures[1].degraded  # retry ran with quick params
        assert "boom" in failures[0].message
        assert "SimulationError" in failures[0].traceback_text

    def test_quick_campaign_not_marked_degraded(self, fake_clock, sleep_recorder):
        exp = FakeExperiment("a")
        report = make_engine([exp], fake_clock, sleep_recorder, quick=True).run()
        assert report.outcome("a").status == "ok"
        assert exp.calls == [{"n": 10}]

    def test_unknown_id_raises_before_running(self, fake_clock, sleep_recorder):
        engine = make_engine([FakeExperiment("a")], fake_clock, sleep_recorder)
        with pytest.raises(KeyError, match="unknown experiments"):
            engine.run(["nope"])

    def test_non_result_return_is_captured(self, fake_clock, sleep_recorder):
        class Liar:
            experiment_id = "liar"

            def run(self, **kwargs):
                return 42

        registry = {"liar": (Liar(), {})}
        engine = CampaignEngine(
            registry,
            config=EngineConfig(sleep=sleep_recorder, clock=fake_clock, jobs=0),
        )
        report = engine.run()
        assert report.failed_ids == ["liar"]


class TestBudgetIntegration:
    def test_hang_is_converted_to_degraded_retry(
        self, tmp_path, fake_clock, sleep_recorder
    ):
        exp = FakeExperiment("fig6")
        engine = make_engine(
            [exp], fake_clock, sleep_recorder, budget_seconds=0.5
        )
        engine.registry = arm(
            engine.registry, {"fig6": fault("hang", attempts=1)}, tmp_path
        )
        report = engine.run()
        outcome = report.outcome("fig6")
        assert outcome.status == "degraded"
        assert outcome.failures[0].category == "budget"
        assert exp.calls == [{"n": 10}]  # only the degraded attempt ran

    def test_budget_object_installed_per_attempt(self, sleep_recorder):
        seen = []

        class Peeker:
            def run(self, **kwargs):
                from repro.runtime.budget import active_budget

                seen.append(active_budget())
                from tests.runtime.conftest import make_result

                return make_result("peek", **kwargs)

        engine = CampaignEngine(
            {"peek": (Peeker(), {})},
            config=EngineConfig(
                budget_seconds=60.0,
                sleep=sleep_recorder,
                clock=FakeClock(),
                jobs=0,
            ),
        )
        engine.run()
        assert len(seen) == 1
        assert isinstance(seen[0], Budget)
        assert seen[0].seconds == 60.0


class TestCheckpointResume:
    def test_completed_results_checkpointed(
        self, tmp_path, fake_clock, sleep_recorder
    ):
        exps = [FakeExperiment("a"), FakeExperiment("b", fail_times=99)]
        engine = make_engine(exps, fake_clock, sleep_recorder, max_attempts=2)
        engine.store = CheckpointStore(tmp_path / "run")
        report = engine.run()
        assert engine.store.completed_ids() == ["a"]
        assert engine.store.failure_path("b").is_file()
        manifest = engine.store.read_manifest()
        assert manifest["experiments"] == ["a", "b"]

    def test_resume_skips_finished_and_reruns_unfinished(
        self, tmp_path, fake_clock, sleep_recorder
    ):
        store = CheckpointStore(tmp_path / "run")
        first_a = FakeExperiment("a")
        first_b = FakeExperiment("b", fail_times=99)
        engine = make_engine(
            [first_a, first_b], fake_clock, sleep_recorder, max_attempts=2
        )
        engine.store = store
        engine.run()
        assert len(first_a.calls) == 1

        # Fresh invocation over the same run dir: b healed, a untouched.
        second_a = FakeExperiment("a")
        second_b = FakeExperiment("b")
        engine2 = make_engine(
            [second_a, second_b], fake_clock, sleep_recorder, max_attempts=2
        )
        engine2.store = store
        report = engine2.run()
        assert second_a.calls == []  # resumed from checkpoint
        assert len(second_b.calls) == 1  # re-run
        resumed = report.outcome("a")
        assert resumed.resumed and resumed.status == "ok"
        assert report.succeeded
        assert sorted(store.completed_ids()) == ["a", "b"]


class TestAcceptanceScenario:
    """ISSUE acceptance: a campaign with an injected crash in one
    experiment and a hang in another completes the rest, retries the
    failures with degraded parameters, and --resume re-runs only the
    unfinished ids."""

    def test_crash_hang_degrade_resume(self, tmp_path, fake_clock, sleep_recorder):
        crasher = FakeExperiment("crash-exp", fail_times=0)
        hanger = FakeExperiment("hang-exp")
        healthy = FakeExperiment("healthy-exp")
        doomed = FakeExperiment(
            "doomed-exp", fail_times=99, error=SimulationError("always dies")
        )
        engine = make_engine(
            [crasher, hanger, healthy, doomed],
            fake_clock,
            sleep_recorder,
            budget_seconds=0.5,
            max_attempts=2,
        )
        engine.registry = arm(
            engine.registry,
            {
                "crash-exp": fault(
                    "crash", attempts=1, exception=TraceGenerationError.__name__
                ),
                "hang-exp": fault("hang", attempts=1),
            },
            tmp_path,
        )
        store = CheckpointStore(tmp_path / "run")
        engine.store = store
        report = engine.run()

        # The healthy experiment completed despite its neighbours.
        assert report.outcome("healthy-exp").status == "ok"
        # Crash and hang were retried with degraded parameters.
        for exp_id, failed_category in [
            ("crash-exp", "trace-generation"),
            ("hang-exp", "budget"),
        ]:
            outcome = report.outcome(exp_id)
            assert outcome.status == "degraded"
            assert outcome.failures[0].category == failed_category
        assert crasher.calls == [{"n": 10}]
        # The unrecoverable experiment failed without sinking the run.
        assert report.failed_ids == ["doomed-exp"]

        # Fresh invocation with --resume semantics: only the unfinished
        # id is re-run.
        rerun = {
            "crash-exp": FakeExperiment("crash-exp"),
            "hang-exp": FakeExperiment("hang-exp"),
            "healthy-exp": FakeExperiment("healthy-exp"),
            "doomed-exp": FakeExperiment("doomed-exp"),  # healed now
        }
        engine2 = make_engine(
            list(rerun.values()), fake_clock, sleep_recorder, max_attempts=2
        )
        engine2.store = store
        report2 = engine2.run()
        assert {
            exp_id: len(exp.calls) for exp_id, exp in rerun.items()
        } == {"crash-exp": 0, "hang-exp": 0, "healthy-exp": 0, "doomed-exp": 1}
        assert report2.succeeded
        assert all(
            report2.outcome(i).resumed
            for i in ("crash-exp", "hang-exp", "healthy-exp")
        )


class TestInterruption:
    """Regression: a KeyboardInterrupt mid-attempt used to unwind the
    engine without flushing the partial summary or emitting a final
    event — completed work was invisible to --resume tooling."""

    def test_interrupt_flushes_partial_state_and_reraises(
        self, tmp_path, fake_clock, sleep_recorder
    ):
        from repro.runtime.journal import JOURNAL_FILENAME, Journal, read_journal

        finished = FakeExperiment("a")
        interrupter = FakeExperiment(
            "b", fail_times=99, error=KeyboardInterrupt()
        )
        engine = make_engine([finished, interrupter], fake_clock, sleep_recorder)
        store = CheckpointStore(tmp_path / "run")
        engine.store = store
        engine.journal = Journal(store.run_dir / JOURNAL_FILENAME, fsync=False)
        seen = []
        engine.on_event = lambda event, payload: seen.append((event, payload))

        with pytest.raises(KeyboardInterrupt):
            engine.run()
        engine.journal.close()

        # The completed outcome was checkpointed and the summary marks
        # the run interrupted — --resume has a valid store.
        assert store.completed_ids() == ["a"]
        assert store.verify_all() == {}
        summary = store.read_summary()
        assert summary["status"] == "interrupted"
        assert summary["completed"] == ["a"]
        assert summary["requested"] == ["a", "b"]

        # A final event went to the callback, and the journal records
        # the interruption and the partial summary's flush.
        assert seen[-1][0] == "interrupted"
        partial = seen[-1][1]
        assert [o.experiment_id for o in partial.outcomes] == ["a"]
        records = read_journal(store.run_dir / JOURNAL_FILENAME).records
        assert [r["type"] for r in records[-2:]] == [
            "interrupted", "summary-flushed"
        ]
        assert records[-1]["status"] == "interrupted"

    def test_interrupt_without_store_still_reraises(
        self, fake_clock, sleep_recorder
    ):
        interrupter = FakeExperiment(
            "a", fail_times=99, error=KeyboardInterrupt()
        )
        engine = make_engine([interrupter], fake_clock, sleep_recorder)
        with pytest.raises(KeyboardInterrupt):
            engine.run()


class TestReportRendering:
    def test_render_mentions_statuses(self, fake_clock, sleep_recorder):
        exps = [FakeExperiment("a"), FakeExperiment("b", fail_times=99)]
        report = make_engine(exps, fake_clock, sleep_recorder, max_attempts=2).run()
        text = report.render()
        assert "campaign summary" in text
        assert "a: ok" in text
        assert "b: failed" in text
        assert "1 ok, 0 degraded, 1 failed" in text

    def test_outcome_lookup_raises_for_unknown(self):
        with pytest.raises(KeyError):
            CampaignReport().outcome("missing")


class TestResultValidation:
    """EngineConfig(validate=True): the oracle gate on successful attempts."""

    @staticmethod
    def _bad_then_good(experiment_id="gated"):
        import numpy as np

        from repro.core.curves import MissRateCurve
        from tests.runtime.conftest import make_result

        class BadThenGood:
            def __init__(self):
                self.experiment_id = experiment_id
                self.calls = []

            def run(self, **kwargs):
                self.calls.append(dict(kwargs))
                result = make_result(experiment_id, **kwargs)
                rates = (
                    np.array([0.5, np.nan])
                    if len(self.calls) == 1
                    else np.array([0.5, 0.25])
                )
                result.curves = [
                    MissRateCurve(
                        capacities=np.array([64, 128]), miss_rates=rates
                    )
                ]
                return result

        return BadThenGood()

    def test_bad_result_rejected_then_retried_degraded(
        self, fake_clock, sleep_recorder
    ):
        exp = self._bad_then_good()
        engine = make_engine(
            [exp], fake_clock, sleep_recorder, validate=True, max_attempts=3
        )
        report = engine.run()
        outcome = report.outcome("gated")
        assert outcome.status == "degraded"
        assert outcome.attempts == 2
        assert outcome.failures[0].category == "result-rejected"
        assert "curve-not-finite" in outcome.failures[0].message
        # The retry degraded to quick parameters, as for any failure.
        assert exp.calls[1]["n"] == 10

    def test_validation_off_by_default_accepts_bad_result(
        self, fake_clock, sleep_recorder
    ):
        exp = self._bad_then_good()
        engine = make_engine([exp], fake_clock, sleep_recorder)
        report = engine.run()
        outcome = report.outcome("gated")
        assert outcome.status == "ok"
        assert outcome.attempts == 1

    def test_persistent_bad_result_fails_the_experiment(
        self, fake_clock, sleep_recorder
    ):
        import numpy as np

        from repro.core.curves import MissRateCurve
        from tests.runtime.conftest import make_result

        class AlwaysBad:
            experiment_id = "hopeless"

            def run(self, **kwargs):
                result = make_result("hopeless", **kwargs)
                result.curves = [
                    MissRateCurve(
                        capacities=np.array([64, 128]),
                        miss_rates=np.array([np.inf, 0.25]),
                    )
                ]
                return result

        engine = make_engine(
            [AlwaysBad()], fake_clock, sleep_recorder, validate=True, max_attempts=2
        )
        report = engine.run()
        outcome = report.outcome("hopeless")
        assert outcome.status == "failed"
        assert all(f.category == "result-rejected" for f in outcome.failures)
