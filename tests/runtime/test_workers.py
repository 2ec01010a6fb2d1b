"""Tests for the hard process-isolation backend: runner shipping, the
wire protocol, worker containment (kill-based timeouts, rlimits,
death classification), the fork server's lifetime and per-attempt
isolation, and the parallel worker pool end to end."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.runner import ExperimentResult
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.engine import CampaignEngine, EngineConfig
from repro.runtime.errors import (
    ExperimentFailure,
    WorkerCrashError,
    WorkerMemoryError,
    WorkerTimeoutError,
)
from repro.runtime.events import EventLog, read_events
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.runtime.workers import (
    AttemptSpec,
    WorkerPool,
    WorkerSupervisor,
    apply_address_space_limit,
    parse_worker_payload,
    resolve_runner_ref,
    runner_ref,
    worker_environment,
)

from tests.runtime import worker_targets

TARGETS = "tests.runtime.worker_targets"

#: Generous rlimit that still stops the memhog quickly: the worker
#: interpreter plus numpy needs a few hundred MiB of address space.
RLIMIT_MB = 512


@pytest.fixture
def make_supervisor():
    """Build supervisors that are closed (fork server reaped) after the test."""
    made = []

    def make(**kwargs) -> WorkerSupervisor:
        made.append(WorkerSupervisor(**kwargs))
        return made[-1]

    yield make
    for supervisor in made:
        supervisor.close()


def make_spec(runner=f"{TARGETS}:run_ok", **overrides) -> AttemptSpec:
    defaults = dict(experiment_id="exp", runner=runner, kwargs={"n": 3})
    defaults.update(overrides)
    return AttemptSpec(**defaults)


class TestRunnerRef:
    def test_module_ships_by_name(self):
        import repro.experiments.table1 as table1

        ref = runner_ref(table1)
        assert ref == "repro.experiments.table1"
        assert resolve_runner_ref(ref) is table1

    def test_module_level_function_ships_by_qualname(self):
        ref = runner_ref(worker_targets.run_ok)
        assert ref == f"{TARGETS}:run_ok"
        assert resolve_runner_ref(ref) is worker_targets.run_ok

    def test_instance_rejected(self):
        from tests.runtime.conftest import FakeExperiment

        with pytest.raises(TypeError, match="jobs=0"):
            runner_ref(FakeExperiment("a"))

    def test_closure_rejected(self):
        with pytest.raises(TypeError, match="not shippable"):
            runner_ref(worker_targets.local_runner)

    def test_pool_fails_fast_on_unshippable_registry(self):
        from tests.runtime.conftest import FakeExperiment

        engine = CampaignEngine(
            {"a": (FakeExperiment("a"), {})},
            config=EngineConfig(jobs=1),
        )
        with pytest.raises(TypeError, match="not shippable"):
            engine.run()


class TestAttemptSpec:
    def test_json_round_trip(self):
        spec = AttemptSpec(
            experiment_id="fig6",
            runner=f"{TARGETS}:run_ok",
            kwargs={"n": 256, "theta": 0.5},
            attempt=2,
            degraded=True,
            budget_seconds=12.5,
            max_rss_mb=512,
            fault={"kind": "crash"},
            workspace="/tmp/ws",
        )
        restored = AttemptSpec.from_json(spec.to_json())
        assert restored == spec

    def test_tuples_arrive_as_lists(self):
        spec = make_spec(kwargs={"slope_sizes": (24, 40)})
        restored = AttemptSpec.from_json(spec.to_json())
        assert restored.kwargs == {"slope_sizes": [24, 40]}


class TestPayloadParsing:
    def test_ok_payload(self):
        result = worker_targets.run_ok(n=3)
        payload = json.dumps({"ok": True, "result": result.to_dict()})
        parsed, failure = parse_worker_payload(make_spec(), payload)
        assert failure is None
        assert isinstance(parsed, ExperimentResult)
        assert parsed.notes == ["param n=3"]

    def test_failure_payload(self):
        failure_dict = ExperimentFailure(
            experiment_id="exp",
            attempt=1,
            category="simulation",
            error_type="SimulationError",
            message="boom",
        ).to_dict()
        payload = json.dumps({"ok": False, "failure": failure_dict})
        result, failure = parse_worker_payload(make_spec(), payload)
        assert result is None
        assert failure.category == "simulation"
        assert failure.message == "boom"

    @pytest.mark.parametrize(
        "stdout", ["", "not json", "[1, 2]", '{"ok": true}']
    )
    def test_malformed_payload_is_classified(self, stdout):
        spec = make_spec(attempt=2, degraded=True)
        result, failure = parse_worker_payload(spec, stdout, "some stderr")
        assert result is None
        assert failure.category == WorkerCrashError.category
        assert failure.error_type == "WorkerCrashError"
        assert failure.attempt == 2 and failure.degraded
        assert "unusable result payload" in failure.message
        assert "some stderr" in failure.traceback_text


class TestWorkerEnvironment:
    def test_propagates_sys_path(self):
        env = worker_environment()
        entries = env["PYTHONPATH"].split(os.pathsep)
        for entry in sys.path:
            if entry:
                assert entry in entries

    def test_rlimit_helper_is_a_no_op_without_limit(self):
        assert apply_address_space_limit(None) is False


class TestSupervisorValidation:
    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError):
            WorkerSupervisor(hard_timeout_seconds=0)

    def test_bad_grace_rejected(self):
        with pytest.raises(ValueError):
            WorkerSupervisor(term_grace_seconds=-1)


class TestSupervisorContainment:
    """Each test round-trips a real forked worker through the supervisor."""

    def test_healthy_attempt_round_trips(self, make_supervisor):
        supervisor = make_supervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(make_spec(kwargs={"n": 7}))
        assert failure is None
        assert result.notes == ["param n=7"]
        assert supervisor.live_count() == 0

    def test_stray_stdout_cannot_corrupt_the_protocol(self, make_supervisor):
        supervisor = make_supervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(
            make_spec(runner=f"{TARGETS}:run_noisy")
        )
        assert failure is None
        assert result.notes == ["param n=3"]

    def test_classified_failure_travels_back(self, make_supervisor):
        supervisor = make_supervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(
            make_spec(runner=f"{TARGETS}:run_crash")
        )
        assert result is None
        assert failure.category == "simulation"
        assert failure.error_type == "SimulationError"
        assert "deliberate crash" in failure.message

    def test_wrong_return_type_is_classified(self, make_supervisor):
        supervisor = make_supervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(
            make_spec(runner=f"{TARGETS}:run_wrong_type")
        )
        assert result is None
        assert "expected ExperimentResult" in failure.message

    def test_non_cooperative_hang_is_killed_at_the_deadline(self, make_supervisor):
        events = []
        supervisor = make_supervisor(
            hard_timeout_seconds=1.0,
            term_grace_seconds=2.0,
            on_event=lambda e, i, d: events.append((e, i, d)),
        )
        started = time.monotonic()
        result, failure = supervisor.run_attempt(
            make_spec(fault={"kind": "hang", "cooperative": False})
        )
        elapsed = time.monotonic() - started
        assert result is None
        assert failure.category == WorkerTimeoutError.category
        assert failure.error_type == "WorkerTimeoutError"
        assert "hard deadline" in failure.message
        # Killed promptly after the 1s deadline, not after minutes.
        assert elapsed < 30
        kill_events = [e for e in events if e[0] == "worker-killed"]
        assert kill_events and kill_events[0][1] == "exp"
        assert kill_events[0][2]["signal"] == "SIGTERM"
        assert supervisor.live_count() == 0

    def test_memhog_contained_by_rlimit(self, make_supervisor):
        supervisor = make_supervisor(hard_timeout_seconds=120)
        result, failure = supervisor.run_attempt(
            make_spec(fault={"kind": "memhog"}, max_rss_mb=RLIMIT_MB)
        )
        assert result is None
        assert failure.category == WorkerMemoryError.category
        assert failure.error_type == "WorkerMemoryError"
        assert "rlimit" in failure.message

    def test_sudden_death_is_classified(self, make_supervisor):
        supervisor = make_supervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(
            make_spec(fault={"kind": "die", "exit_code": 7})
        )
        assert result is None
        assert failure.category == WorkerCrashError.category
        assert "status 7" in failure.message

    def test_death_by_signal_is_classified(self, make_supervisor):
        supervisor = make_supervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(
            make_spec(runner=f"{TARGETS}:run_sigkill")
        )
        assert result is None
        assert failure.category == WorkerCrashError.category
        assert "SIGKILL" in failure.message
        assert "last words before SIGKILL" in failure.traceback_text


#: Runs one pool campaign over ``worker_targets.run_alloc`` in a fresh
#: interpreter (so ``RUSAGE_CHILDREN`` starts empty), then reports
#: whether any child is still alive and the children's peak RSS.
LIFETIME_SCRIPT = """
import json, os, resource, sys
from repro.runtime.engine import CampaignEngine, EngineConfig
from tests.runtime import worker_targets

scenario = sys.argv[1]
kwargs = {
    "crash": scenario == "crash",
    "interrupt_pid": os.getpid() if scenario == "interrupt" else 0,
}
engine = CampaignEngine(
    {"alloc": (worker_targets.run_alloc, kwargs)},
    config=EngineConfig(jobs=1, max_attempts=1, term_grace_seconds=2.0),
)
try:
    status = engine.run().outcome("alloc").status
except KeyboardInterrupt:
    status = "interrupted"
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
try:
    os.waitpid(-1, os.WNOHANG)
    live_children = True
except ChildProcessError:
    live_children = False
print(json.dumps({"status": status, "live_children": live_children,
                  "maxrss_kb": usage.ru_maxrss}))
"""


class TestForkServerLifetime:
    """The pool stops and reaps its fork server however ``run`` ends, so
    no process outlives it and the workers' memory reaches the
    caller's ``RUSAGE_CHILDREN``."""

    @pytest.mark.parametrize(
        "scenario, status",
        [("normal", "ok"), ("crash", "failed"), ("interrupt", "interrupted")],
    )
    def test_server_is_reaped(self, scenario, status):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        done = subprocess.run(
            [sys.executable, "-c", LIFETIME_SCRIPT, scenario],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        report = json.loads(done.stdout.strip().splitlines()[-1])
        assert report["status"] == status
        assert report["live_children"] is False
        assert report["maxrss_kb"] >= worker_targets.ALLOC_MB * 1024

    def test_server_starts_lazily_and_close_is_idempotent(self, make_supervisor):
        supervisor = make_supervisor(hard_timeout_seconds=60)
        assert supervisor._server is None
        result, failure = supervisor.run_attempt(make_spec())
        assert failure is None and supervisor._server is not None
        server_pid = supervisor._server.pid
        supervisor.close()
        supervisor.close()
        assert supervisor._server is None
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(server_pid, os.WNOHANG)


    def test_a_dead_server_is_replaced(self, make_supervisor):
        supervisor = make_supervisor(hard_timeout_seconds=60)
        assert supervisor.run_attempt(make_spec())[1] is None
        dead = supervisor._server
        os.kill(dead.pid, signal.SIGKILL)
        result, failure = supervisor.run_attempt(make_spec())
        assert result is None
        assert failure.category == WorkerCrashError.category
        assert "could not fork" in failure.message
        result, failure = supervisor.run_attempt(make_spec())
        assert failure is None and result.notes == ["param n=3"]
        assert supervisor._server is not dead


    def test_concurrent_spawns_get_their_own_payloads(self, make_supervisor):
        from concurrent.futures import ThreadPoolExecutor

        supervisor = make_supervisor(hard_timeout_seconds=60)
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = {
                n: pool.submit(
                    supervisor.run_attempt, make_spec(kwargs={"n": n})
                )
                for n in range(18)
            }
            for n, future in futures.items():
                result, failure = future.result(timeout=120)
                assert failure is None
                assert result.notes == [f"param n={n}"]
        assert supervisor.live_count() == 0


class TestPerAttemptIsolation:
    """Every forked worker starts from the server's freshly imported
    state and the supervisor's environment at attempt time."""

    def test_module_state_is_fresh_on_every_attempt(self, make_supervisor):
        supervisor = make_supervisor(hard_timeout_seconds=60, preload=[TARGETS])
        for _ in range(3):
            result, failure = supervisor.run_attempt(
                make_spec(runner=f"{TARGETS}:run_count_calls")
            )
            assert failure is None
            assert result.notes[-1] == "calls=1"

    def test_environment_is_taken_at_attempt_time(
        self, make_supervisor, monkeypatch
    ):
        from repro.mem.kernels import TIER_ENV

        monkeypatch.setenv(TIER_ENV, "vector")
        supervisor = make_supervisor(hard_timeout_seconds=60)
        spec = make_spec(
            runner=f"{TARGETS}:run_echo_env", kwargs={"name": TIER_ENV}
        )
        result, _ = supervisor.run_attempt(spec)
        assert result.notes[-1] == f"{TIER_ENV}=vector"
        monkeypatch.setenv(TIER_ENV, "oracle")  # the server is running now
        result, _ = supervisor.run_attempt(spec)
        assert result.notes[-1] == f"{TIER_ENV}=oracle"

    def test_iofault_is_absent_in_a_live_worker(
        self, make_supervisor, monkeypatch
    ):
        from repro.runtime.iofault import IOFAULT_ENV

        monkeypatch.setenv(IOFAULT_ENV, "journal:write:kill:3")
        supervisor = make_supervisor(hard_timeout_seconds=60)
        result, failure = supervisor.run_attempt(
            make_spec(
                runner=f"{TARGETS}:run_echo_env", kwargs={"name": IOFAULT_ENV}
            )
        )
        assert failure is None
        assert result.notes[-1] == f"{IOFAULT_ENV}=None"


class TestWorkerPoolAcceptance:
    """ISSUE acceptance: a parallel campaign with an injected
    non-cooperative hang and a memory hog completes — both workers are
    killed/contained and classified, the experiments retry-degrade, the
    healthy one finishes, and --resume skips everything checkpointed."""

    def _engine(self, store, event_log=None, faults=None):
        registry = {
            "healthy": (worker_targets.run_ok, {"n": 1}),
            "hangy": (worker_targets.run_ok, {"n": 2}),
            "hoggy": (worker_targets.run_ok, {"n": 3}),
        }
        overrides = {name: {"n": 0} for name in registry}
        return CampaignEngine(
            registry,
            quick_overrides=overrides,
            config=EngineConfig(
                jobs=2,
                hard_timeout_seconds=2.0,
                term_grace_seconds=2.0,
                max_rss_mb=RLIMIT_MB,
                max_attempts=2,
                backoff_base_seconds=0.0,
            ),
            store=store,
            faults=faults,
            event_log=event_log,
        )

    def test_parallel_containment_degrade_and_resume(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        faults = FaultInjector(
            plan={
                "hangy": FaultSpec(kind="hang", cooperative=False),
                "hoggy": FaultSpec(kind="memhog"),
            }
        )
        with EventLog(store.events_path) as event_log:
            engine = self._engine(store, event_log=event_log, faults=faults)
            report = engine.run()

        assert report.succeeded
        assert report.outcome("healthy").status == "ok"
        hangy = report.outcome("hangy")
        assert hangy.status == "degraded"
        assert hangy.failures[0].category == WorkerTimeoutError.category
        hoggy = report.outcome("hoggy")
        assert hoggy.status == "degraded"
        assert hoggy.failures[0].category == WorkerMemoryError.category
        # Outcomes come back in requested order despite parallelism.
        assert [o.experiment_id for o in report.outcomes] == [
            "healthy", "hangy", "hoggy",
        ]

        # The store survived the carnage intact.
        assert sorted(store.completed_ids()) == ["hangy", "healthy", "hoggy"]
        assert store.verify_all() == {}
        assert store.read_summary()["status"] == "complete"

        # The event log shows the kill and a total order.
        events = read_events(store.events_path)
        names = [e["event"] for e in events]
        assert "worker-killed" in names
        assert "degraded" in names
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

        # Resume: a fresh engine over the same store re-runs nothing.
        report2 = self._engine(store).run()
        assert all(outcome.resumed for outcome in report2.outcomes)
        assert report2.succeeded


class TestGracefulInterruption:
    """ISSUE acceptance: SIGINT mid-campaign kills workers, leaves a
    valid checkpoint store, and --resume completes the remainder
    without re-running finished experiments."""

    def _cli_env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        return env

    def test_sigint_leaves_valid_resumable_store(self, tmp_path):
        run_dir = tmp_path / "run"
        store = CheckpointStore(run_dir)
        argv = [
            sys.executable, "-m", "repro.experiments",
            "--quick", "--jobs", "2", "--run-dir", str(run_dir),
            "--inject-fault", "fig5=hang-hard:99",
            "table1", "fig5",
        ]
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=self._cli_env(),
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and not store.has_result("table1"):
                assert proc.poll() is None, proc.stdout.read()
                time.sleep(0.1)
            assert store.has_result("table1"), "table1 never checkpointed"
            time.sleep(0.3)  # let the fig5 worker get properly stuck
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        assert proc.returncode == 1, out
        assert "campaign interrupted" in out
        assert store.verify_all() == {}
        summary = store.read_summary()
        assert summary["status"] == "interrupted"
        assert "table1" in summary["completed"]
        assert "fig5" not in summary["completed"]
        names = [e["event"] for e in read_events(store.events_path)]
        assert "interrupted" in names

        # Resume (no fault this time): fig5 completes, table1 skipped.
        resumed = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments",
                "--quick", "--jobs", "2", "--resume", str(run_dir),
                "table1", "fig5",
            ],
            capture_output=True,
            text=True,
            env=self._cli_env(),
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert "table1 already completed" in resumed.stdout
        assert sorted(store.completed_ids()) == ["fig5", "table1"]
        assert store.read_summary()["status"] == "complete"
