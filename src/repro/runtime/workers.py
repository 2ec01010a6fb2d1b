"""Hard process isolation: the supervised worker-pool backend.

The cooperative :class:`~repro.runtime.budget.Budget` can only stop
code that polls it.  A hang in un-instrumented code (a numpy kernel,
an octree build, a trace generator stuck in pure Python), a memory
blowup, or a hard crash takes the whole campaign down with it.  This
module contains those failures *outside* the failing code: every
experiment attempt runs in its own worker process, forked from a
preloaded fork server (:mod:`repro.runtime.forkserver`), and the
supervisor enforces what the child cannot be trusted to enforce on
itself:

- **Fresh state per attempt** — the fork server imports numpy,
  :mod:`repro` and the campaign's runner modules once, and never runs
  experiment code; each attempt is a new fork of it, in its own
  session, with the environment :func:`worker_environment` returns at
  attempt time.
- **Hard deadlines** — a worker that outlives its hard wall-clock
  deadline is sent SIGTERM, given a grace period, then SIGKILLed.
  The attempt is classified as
  :class:`~repro.runtime.errors.WorkerTimeoutError`.
- **Memory guards** — the worker applies
  ``resource.setrlimit(RLIMIT_AS)`` to itself before running, so an
  allocation blowup raises ``MemoryError`` inside (classified
  :class:`~repro.runtime.errors.WorkerMemoryError`) or kills that one
  process — never the campaign.
- **Death classification** — a worker that exits nonzero, dies on a
  signal, or returns an unusable payload becomes a structured
  :class:`~repro.runtime.errors.WorkerCrashError` failure feeding the
  engine's ordinary retry/degradation policy.
- **Parallelism** — up to ``jobs`` experiments run concurrently, each
  driven by a supervisor thread that blocks on its worker;
  the final report and summary are ordered by the requested id list
  regardless of completion order.
- **Graceful interruption** — SIGINT/SIGTERM in the supervisor kills
  live workers (TERM, grace, KILL), flushes completed outcomes and the
  partial summary through the engine, and re-raises so the CLI exits
  with the documented contract; ``--resume`` then skips everything
  checkpointed.
- **Owned lifetime** — the fork server starts at a campaign's first
  attempt and is stopped and reaped whenever :meth:`WorkerPool.run`
  returns or unwinds, so no process outlives the campaign and the
  workers' memory use reaches the caller's ``RUSAGE_CHILDREN``.

The wire protocol is deliberately dumb: the supervisor hands the
worker one JSON :class:`AttemptSpec` with its fork request; the worker
(:func:`repro.experiments.runner.worker_main`) replies with one JSON
payload on its own payload pipe — ``{"ok": true, "result": ...}`` (an
:class:`~repro.experiments.runner.ExperimentResult` round-trip) or
``{"ok": false, "failure": ...}`` (a pre-classified
:class:`~repro.runtime.errors.ExperimentFailure`) — while its stdout
and stderr go to a separate pipe kept for forensics.  A malformed or
truncated payload is a *classified failure*, never a supervisor crash.
Experiment runners are shipped by importable reference
(``module`` or ``module:qualname``), so only registry entries that
resolve back to themselves are eligible — checked up front by
:func:`runner_ref`.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentResult
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.runtime.errors import (
    ExperimentFailure,
    FencingViolationError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.runtime.forkserver import ForkedWorker, ForkServer
from repro.runtime.iofault import IOFAULT_ENV

#: How much of a dead worker's stderr is kept for forensics.
STDERR_TAIL_CHARS = 2000


# -- runner references ----------------------------------------------------


def runner_ref(runner: object) -> str:
    """An importable reference to ``runner`` (``module`` or
    ``module:qualname``).

    The reference is resolved back immediately and must return the
    *same object*, guaranteeing the worker process will rebuild exactly
    what the supervisor registered.  Instances (which carry state a
    fresh process cannot see) are rejected with ``TypeError``.
    """
    name = getattr(runner, "__name__", None)
    if name is not None and getattr(runner, "__spec__", None) is not None:
        ref = name  # a module
    else:
        module = getattr(runner, "__module__", None)
        qualname = getattr(runner, "__qualname__", None)
        if not module or not qualname or "<locals>" in qualname:
            raise TypeError(
                f"experiment runner {runner!r} is not shippable to a worker "
                "process: it must be a module, or a module-level "
                "function/class (use jobs=0 for in-process runners)"
            )
        ref = f"{module}:{qualname}"
    if resolve_runner_ref(ref) is not runner:
        raise TypeError(
            f"experiment runner {runner!r} is not shippable to a worker "
            f"process: reference {ref!r} does not resolve back to it "
            "(use jobs=0 for in-process runners)"
        )
    return ref


def resolve_runner_ref(ref: str) -> object:
    """Import the object named by a :func:`runner_ref` reference."""
    module_name, _, qualname = ref.partition(":")
    obj: object = import_module(module_name)
    if qualname:
        for part in qualname.split("."):
            obj = getattr(obj, part)
    return obj


# -- the wire protocol ----------------------------------------------------


@dataclass
class AttemptSpec:
    """Everything a worker needs to run one experiment attempt.

    JSON-serialized into the worker's fork request.  ``kwargs`` must be
    JSON-representable (tuples arrive as lists — the experiment
    drivers take ``Sequence`` parameters).
    """

    experiment_id: str
    runner: str
    kwargs: Dict[str, object] = field(default_factory=dict)
    attempt: int = 1
    degraded: bool = False
    budget_seconds: Optional[float] = None
    max_rss_mb: Optional[int] = None
    fault: Optional[Dict[str, object]] = None
    workspace: Optional[str] = None
    fencing_token: int = 0
    obs: bool = False
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "runner": self.runner,
                "kwargs": self.kwargs,
                "attempt": self.attempt,
                "degraded": self.degraded,
                "budget_seconds": self.budget_seconds,
                "max_rss_mb": self.max_rss_mb,
                "fault": self.fault,
                "workspace": self.workspace,
                "fencing_token": self.fencing_token,
                "obs": self.obs,
                "trace_id": self.trace_id,
                "parent_span_id": self.parent_span_id,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "AttemptSpec":
        payload = json.loads(text)
        return cls(
            experiment_id=str(payload["experiment_id"]),
            runner=str(payload["runner"]),
            kwargs=dict(payload.get("kwargs") or {}),
            attempt=int(payload.get("attempt", 1)),
            degraded=bool(payload.get("degraded", False)),
            budget_seconds=payload.get("budget_seconds"),
            max_rss_mb=payload.get("max_rss_mb"),
            fault=payload.get("fault"),
            workspace=payload.get("workspace"),
            fencing_token=int(payload.get("fencing_token", 0)),
            obs=bool(payload.get("obs", False)),
            trace_id=payload.get("trace_id"),
            parent_span_id=payload.get("parent_span_id"),
        )


def apply_address_space_limit(max_rss_mb: Optional[int]) -> bool:
    """Apply ``RLIMIT_AS`` to the *current* process (worker side).

    Returns True when a limit was installed.  Platforms without
    ``resource`` (or refusing the call) degrade to no limit — the
    supervisor's hard deadline still bounds the worker.
    """
    if max_rss_mb is None:
        return False
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return False
    limit = int(max_rss_mb) * 1024 * 1024
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError):  # pragma: no cover - platform quirks
        return False
    return True


def parse_worker_payload(
    spec: AttemptSpec,
    stdout: str,
    stderr_tail: str = "",
    expected_token: Optional[int] = None,
    obs_sink: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Tuple[Optional[ExperimentResult], Optional[ExperimentFailure]]:
    """Decode a worker's stdout into ``(result, failure)``.

    Any malformed, truncated, or wrongly-shaped payload becomes a
    classified :class:`WorkerCrashError` failure — the supervisor never
    crashes on what a dying worker managed to write.

    When ``expected_token`` is given, the payload's echoed fencing
    token must match it: a payload stamped with an older token comes
    from a worker spawned by a superseded supervisor generation (see
    :mod:`repro.runtime.lease`) and is rejected as a
    :class:`~repro.runtime.errors.FencingViolationError` failure rather
    than committed.  A payload with no token field counts as token 0,
    so any fenced supervisor (token >= 1) rejects it too.

    ``obs_sink`` receives the payload's optional ``obs`` block (worker
    metrics snapshot, buffered spans, RSS peak) once the payload passes
    the fencing check — telemetry from a fenced-out worker generation
    is dropped with its result.
    """
    try:
        payload = json.loads(stdout)
        if not isinstance(payload, dict):
            raise ValueError(f"payload is {type(payload).__name__}, not object")
        if expected_token is not None:
            stated = int(payload.get("token", 0))
            if stated != expected_token:
                return None, _worker_failure(
                    spec,
                    FencingViolationError,
                    f"worker for {spec.experiment_id} returned a payload "
                    f"stamped with fencing token {stated}, but the current "
                    f"supervisor generation is {expected_token}; the result "
                    "is from a superseded supervisor and was rejected",
                    stderr_tail,
                )
        obs = payload.get("obs")
        if obs_sink is not None and isinstance(obs, dict):
            obs_sink(obs)
        if payload.get("ok"):
            return ExperimentResult.from_dict(payload["result"]), None
        return None, ExperimentFailure.from_dict(payload["failure"])
    except Exception as exc:  # noqa: BLE001 — classification is the point
        excerpt = stdout.strip()[:200] or "<empty>"
        return None, _worker_failure(
            spec,
            WorkerCrashError,
            f"worker for {spec.experiment_id} exited cleanly but returned an "
            f"unusable result payload ({type(exc).__name__}: {exc}; "
            f"payload excerpt: {excerpt!r})",
            stderr_tail,
        )


def _worker_failure(
    spec: AttemptSpec,
    error_class: type,
    message: str,
    stderr_tail: str = "",
    elapsed_seconds: float = 0.0,
) -> ExperimentFailure:
    """A supervisor-side failure record for a dead/killed worker."""
    forensics = ""
    if stderr_tail.strip():
        forensics = f"worker stderr (tail):\n{stderr_tail.strip()}\n"
    return ExperimentFailure(
        experiment_id=spec.experiment_id,
        attempt=spec.attempt,
        category=error_class.category,
        error_type=error_class.__name__,
        message=message,
        traceback_text=forensics,
        degraded=spec.degraded,
        elapsed_seconds=elapsed_seconds,
    )


def _signal_name(signum: int) -> str:
    try:
        return signal.Signals(signum).name
    except ValueError:
        return f"signal {signum}"


def worker_environment() -> Dict[str, str]:
    """Environment for worker processes.

    Propagates the supervisor's full ``sys.path`` through
    ``PYTHONPATH`` so the fork server, and every worker forked from it,
    resolves the exact same packages (including test-only registries),
    however the supervisor itself was launched.  Each worker gets this
    environment as it is at its own attempt, not at server start.

    ``REPRO_IOFAULT`` is deliberately stripped: injected I/O faults
    (:mod:`repro.runtime.iofault`) target the *supervisor's* durability
    writes; a worker inheriting the variable would consume the fault's
    call counter in the wrong process and make chaos kill points
    non-deterministic.
    """
    env = dict(os.environ)
    env.pop(IOFAULT_ENV, None)
    entries = [entry for entry in sys.path if entry]
    if entries:
        env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


class WorkerSupervisor:
    """Forks worker processes and enforces hard containment.

    Thread-safe: one supervisor serves all pool threads, tracking live
    workers so an interrupt can kill every one of them.  Workers are
    forked from a :class:`~repro.runtime.forkserver.ForkServer` that the
    first attempt starts and :meth:`close` stops and reaps; use the
    supervisor as a context manager, or call :meth:`close` yourself.

    Args:
        hard_timeout_seconds: Wall-clock deadline per attempt; None
            waits forever (the in-worker cooperative budget may still
            bound the attempt).
        term_grace_seconds: How long a worker gets between SIGTERM and
            SIGKILL.
        on_event: Callback ``(event, experiment_id, detail_dict)`` —
            the engine routes these into its event log
            (``worker-killed`` etc.).
        current_token: Callable returning the supervisor's *current*
            fencing token; payloads are checked against it at parse
            time (not spawn time), so a token bumped mid-flight by a
            lease reclaim fences out workers already running.  None
            disables the check (legacy callers).
        obs_sink: Callback ``(spec, obs_dict)`` receiving the telemetry
            block a worker shipped in its payload (the pool wires the
            engine's campaign rollup here).
        preload: Modules the fork server imports before its first fork
            (the pool passes the campaign's runner modules).
    """

    def __init__(
        self,
        hard_timeout_seconds: Optional[float] = None,
        term_grace_seconds: float = 5.0,
        on_event: Optional[Callable[[str, str, Dict[str, object]], None]] = None,
        current_token: Optional[Callable[[], int]] = None,
        obs_sink: Optional[
            Callable[[AttemptSpec, Dict[str, object]], None]
        ] = None,
        preload: Sequence[str] = (),
    ) -> None:
        if hard_timeout_seconds is not None and hard_timeout_seconds <= 0:
            raise ValueError("hard_timeout_seconds must be positive")
        if term_grace_seconds < 0:
            raise ValueError("term_grace_seconds must be >= 0")
        self.hard_timeout_seconds = hard_timeout_seconds
        self.term_grace_seconds = term_grace_seconds
        self.on_event = on_event
        self.current_token = current_token
        self.obs_sink = obs_sink
        self.preload = tuple(preload)
        self._server: Optional[ForkServer] = None
        self._live: Dict[int, ForkedWorker] = {}
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop and reap the fork server (a no-op if none is running)."""
        with self._lock:
            server, self._server = self._server, None
        if server is not None:
            server.close()

    def _spawn(self, spec: AttemptSpec) -> ForkedWorker:
        """Fork a worker for ``spec``, starting the server on first use."""
        with self._lock:
            if self._server is None:
                self._server = ForkServer(self.preload, worker_environment())
            server = self._server
        try:
            return server.spawn(spec.to_json(), worker_environment())
        except OSError:
            if server.exited():  # replaced at the next attempt
                with self._lock:
                    if self._server is server:
                        self._server = None
                server.close()
            raise

    def run_attempt(
        self, spec: AttemptSpec
    ) -> Tuple[Optional[ExperimentResult], Optional[ExperimentFailure]]:
        """Run one attempt in a fresh worker; classify however it ends."""
        with tracing.span(
            "worker.spawn", experiment_id=spec.experiment_id, attempt=spec.attempt
        ) as spawn_span:
            try:
                proc = self._spawn(spec)
            except OSError as exc:
                return None, _worker_failure(
                    spec,
                    WorkerCrashError,
                    f"could not fork a worker for {spec.experiment_id}: "
                    f"{type(exc).__name__}: {exc}",
                )
            if spawn_span is not None:
                spawn_span.attrs["worker_pid"] = proc.pid
        obs_metrics.inc("worker.spawns")
        with self._lock:
            self._live[proc.pid] = proc
        try:
            with tracing.span(
                "worker.attempt",
                experiment_id=spec.experiment_id,
                attempt=spec.attempt,
                worker_pid=proc.pid,
            ):
                return self._converse(spec, proc)
        finally:
            with self._lock:
                self._live.pop(proc.pid, None)

    def _converse(
        self, spec: AttemptSpec, proc: ForkedWorker
    ) -> Tuple[Optional[ExperimentResult], Optional[ExperimentFailure]]:
        killed_at_deadline = False
        try:
            stdout, stderr = proc.communicate(timeout=self.hard_timeout_seconds)
        except subprocess.TimeoutExpired:
            killed_at_deadline = True
            stdout, stderr = self._escalate(spec, proc)
        except BaseException:
            # The supervisor thread itself is unwinding (interrupt,
            # internal error): never leak a live worker.
            proc.send_signal(signal.SIGKILL)
            proc.communicate()
            raise
        stderr_tail = stderr[-STDERR_TAIL_CHARS:]

        if killed_at_deadline:
            return None, _worker_failure(
                spec,
                WorkerTimeoutError,
                f"worker for {spec.experiment_id} exceeded its hard deadline "
                f"of {self.hard_timeout_seconds:.3g}s and was killed "
                "(SIGTERM, then SIGKILL after "
                f"{self.term_grace_seconds:.3g}s grace)",
                stderr_tail,
                elapsed_seconds=self.hard_timeout_seconds or 0.0,
            )
        returncode = proc.returncode
        if returncode == 0:
            expected = (
                self.current_token() if self.current_token is not None else None
            )
            sink = None
            if self.obs_sink is not None:
                obs_sink = self.obs_sink

                def sink(obs: Dict[str, object]) -> None:
                    obs_sink(spec, obs)

            return parse_worker_payload(
                spec,
                stdout,
                stderr_tail,
                expected_token=expected,
                obs_sink=sink,
            )
        if returncode is None:
            return None, _worker_failure(
                spec,
                WorkerCrashError,
                f"worker for {spec.experiment_id} was lost: the fork server "
                "exited before reporting its exit status",
                stderr_tail,
            )
        if returncode < 0:
            return None, _worker_failure(
                spec,
                WorkerCrashError,
                f"worker for {spec.experiment_id} was killed by "
                f"{_signal_name(-returncode)}",
                stderr_tail,
            )
        return None, _worker_failure(
            spec,
            WorkerCrashError,
            f"worker for {spec.experiment_id} exited with status {returncode} "
            "without delivering a result",
            stderr_tail,
        )

    def _escalate(
        self, spec: AttemptSpec, proc: ForkedWorker
    ) -> Tuple[str, str]:
        """SIGTERM, wait out the grace period, then SIGKILL."""
        obs_metrics.inc("worker.deadline_kills")
        self._emit(
            "worker-killed",
            spec.experiment_id,
            {"attempt": spec.attempt, "signal": "SIGTERM",
             "reason": "hard-deadline", "pid": proc.pid},
        )
        proc.send_signal(signal.SIGTERM)
        try:
            return proc.communicate(timeout=self.term_grace_seconds)
        except subprocess.TimeoutExpired:
            self._emit(
                "worker-killed",
                spec.experiment_id,
                {"attempt": spec.attempt, "signal": "SIGKILL",
                 "reason": "term-grace-expired", "pid": proc.pid},
            )
            proc.send_signal(signal.SIGKILL)
            return proc.communicate()

    # -- interruption ------------------------------------------------

    def kill_all(self, term_grace_seconds: Optional[float] = None) -> int:
        """TERM every live worker, grace, then KILL the stragglers.

        Returns how many workers were signalled.  Called from the main
        thread on SIGINT/SIGTERM; the pool threads blocked in
        ``communicate`` observe the deaths and classify them, but the
        engine's abort flag stops those failures from being retried or
        recorded.
        """
        grace = (
            self.term_grace_seconds
            if term_grace_seconds is None
            else term_grace_seconds
        )
        with self._lock:
            victims = list(self._live.values())
        for proc in victims:
            proc.send_signal(signal.SIGTERM)
        deadline = _monotonic() + grace
        for proc in victims:
            remaining = deadline - _monotonic()
            if remaining > 0:
                proc.wait(timeout=remaining)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
        return len(victims)

    def live_count(self) -> int:
        with self._lock:
            return len(self._live)

    def _emit(self, event: str, experiment_id: str, detail: Dict[str, object]) -> None:
        if self.on_event is not None:
            self.on_event(event, experiment_id, detail)


def _monotonic() -> float:
    import time

    return time.monotonic()


@contextlib.contextmanager
def sigterm_as_interrupt() -> Iterator[None]:
    """Deliver SIGTERM to the supervisor as ``KeyboardInterrupt``.

    SIGTERM (a batch scheduler's shutdown, ``kill <pid>``) then travels
    the same drain path as Ctrl-C: kill workers, flush checkpoints,
    exit under the documented contract.  No-op outside the main thread
    (signal handlers can only be installed there).
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum: int, frame: object) -> None:
        raise KeyboardInterrupt(f"received {_signal_name(signum)}")

    previous = signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class WorkerPool:
    """Schedules experiments onto supervised worker processes.

    One supervisor thread per in-flight experiment runs the engine's
    ordinary retry/degradation policy (``run_one``), with each attempt
    executed in a freshly forked worker via :class:`WorkerSupervisor`.
    The thread count — not the process count — is the concurrency cap:
    at most ``jobs`` workers (plus the one fork server) are ever alive.

    Args:
        engine: The owning :class:`~repro.runtime.engine.CampaignEngine`.
        jobs: Concurrent experiments (>= 1).
    """

    def __init__(self, engine, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"worker pool needs jobs >= 1 (got {jobs})")
        self.engine = engine
        self.jobs = jobs
        config = engine.config
        self.supervisor = WorkerSupervisor(
            hard_timeout_seconds=self._hard_deadline(config),
            term_grace_seconds=config.term_grace_seconds,
            on_event=self._supervisor_event,
            current_token=lambda: engine.fencing_token,
            obs_sink=getattr(engine, "record_worker_obs", None),
        )
        # Submit timestamps for queue-wait accounting (experiment id ->
        # monotonic submit time); written once before the threads start.
        self._submitted: Dict[str, float] = {}

    @staticmethod
    def _hard_deadline(config) -> Optional[float]:
        """The enforced per-attempt deadline.

        Explicit ``hard_timeout_seconds`` wins; otherwise a campaign
        with a cooperative budget gets a derived backstop (twice the
        budget plus startup slack) so even non-cooperative hangs are
        bounded; otherwise None (unbounded, interruptible only).
        """
        if config.hard_timeout_seconds is not None:
            return config.hard_timeout_seconds
        if config.budget_seconds is not None:
            return config.budget_seconds * 2 + 30.0
        return None

    def check_shippable(self, experiment_ids: Sequence[str]) -> List[str]:
        """Fail fast (before any spawn) on unshippable registry entries.

        Returns the runner references, in ``experiment_ids`` order.
        """
        return [
            runner_ref(self.engine.registry[experiment_id][0])
            for experiment_id in experiment_ids
        ]

    def run_attempt(
        self,
        experiment_id: str,
        attempt: int,
        degraded: bool,
        kwargs: Dict[str, object],
        budget,
    ) -> Tuple[Optional[ExperimentResult], Optional[ExperimentFailure]]:
        """The engine-facing attempt runner (one worker per call)."""
        engine = self.engine
        runner, _ = engine.registry[experiment_id]
        fault_dict = None
        if engine.faults is not None:
            fault_spec = engine.faults.spec_for(experiment_id, attempt)
            if fault_spec is not None:
                engine.faults.record(experiment_id, attempt, fault_spec.kind)
                fault_dict = fault_spec.to_dict()
        workspace = None
        if engine.faults is not None and engine.faults.workspace is not None:
            workspace = str(engine.faults.workspace)
        tracer = tracing.get_tracer()
        spec = AttemptSpec(
            experiment_id=experiment_id,
            runner=runner_ref(runner),
            kwargs=kwargs,
            attempt=attempt,
            degraded=degraded,
            budget_seconds=engine.config.budget_seconds,
            max_rss_mb=engine.config.max_rss_mb,
            fault=fault_dict,
            workspace=workspace,
            fencing_token=engine.fencing_token,
            obs=obs_metrics.obs_enabled(),
            trace_id=tracer.trace_id if tracer is not None else None,
            parent_span_id=(
                tracer.current_span_id() if tracer is not None else None
            ),
        )
        return self.supervisor.run_attempt(spec)

    def run(self, wanted: Sequence[str], collected: List) -> None:
        """Run ``wanted`` with up to ``jobs`` concurrent workers.

        Appends finished outcomes to ``collected`` in *requested* order
        (not completion order) — also on interruption, so the partial
        summary the engine flushes is deterministic.  Re-raises
        ``KeyboardInterrupt`` after killing workers and draining
        threads; the engine finalizes and propagates.

        The fork server starts at the first attempt, preloaded with the
        runner modules of ``wanted``, and is stopped and reaped before
        this returns or unwinds.
        """
        refs = self.check_shippable(wanted)
        self.supervisor.preload = tuple(ref.partition(":")[0] for ref in refs)
        try:
            self._run(wanted, collected)
        finally:
            self.supervisor.close()

    def _run(self, wanted: Sequence[str], collected: List) -> None:
        engine = self.engine
        outcomes: Dict[str, object] = {}
        now = _monotonic()
        self._submitted = {experiment_id: now for experiment_id in wanted}
        executor = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="campaign-worker"
        )
        futures = {
            executor.submit(self._run_one_guarded, experiment_id): experiment_id
            for experiment_id in wanted
        }
        try:
            with sigterm_as_interrupt():
                pending = set(futures)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        outcome = future.result()
                        if outcome is not None:
                            outcomes[futures[future]] = outcome
            executor.shutdown(wait=True)
        except KeyboardInterrupt:
            engine.abort()
            self.supervisor.kill_all()
            executor.shutdown(wait=True, cancel_futures=True)
            for future, experiment_id in futures.items():
                if future.done() and not future.cancelled():
                    try:
                        outcome = future.result()
                    except BaseException:  # noqa: BLE001 — draining
                        continue
                    if outcome is not None:
                        outcomes[experiment_id] = outcome
            raise
        except BaseException:
            # Any other supervisor-side failure (a checkpoint disk
            # full, a journal write error) must not leak threads or
            # live workers either.
            engine.abort()
            self.supervisor.kill_all()
            executor.shutdown(wait=True, cancel_futures=True)
            raise
        finally:
            for experiment_id in wanted:
                if experiment_id in outcomes:
                    collected.append(outcomes[experiment_id])

    def _run_one_guarded(self, experiment_id: str):
        """Thread body: run one experiment; swallow abort, return None."""
        from repro.runtime.engine import CampaignAborted

        submitted = self._submitted.get(experiment_id)
        if submitted is not None:
            wait_s = max(0.0, _monotonic() - submitted)
            obs_metrics.observe("worker.queue_wait_seconds", wait_s)
            tracer = tracing.get_tracer()
            if tracer is not None:
                import time as _time

                tracer.record(
                    "worker.queue_wait",
                    t_wall=_time.time() - wait_s,
                    dur_s=wait_s,
                    experiment_id=experiment_id,
                )
        try:
            return self.engine.run_one(
                experiment_id, attempt_runner=self.run_attempt
            )
        except CampaignAborted:
            return None

    def _supervisor_event(
        self, event: str, experiment_id: str, detail: Dict[str, object]
    ) -> None:
        self.engine.log_event(event, experiment_id, **detail)
