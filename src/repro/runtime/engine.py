"""The fault-tolerant campaign engine.

Replaces the fragile "for experiment in list: run()" loop of
``python -m repro.experiments`` with a pipeline that survives partial
failure:

- **Isolation** — each experiment runs as its own unit of work; any
  exception is captured into a structured
  :class:`~repro.runtime.errors.ExperimentFailure` (classified via the
  taxonomy) and the campaign moves on to the next experiment.
- **Budgets** — every attempt runs under a wall-clock
  :class:`~repro.runtime.budget.Budget` installed as the ambient
  budget, which the simulation loops in :mod:`repro.mem` poll
  cooperatively; a hang surfaces as
  :class:`~repro.runtime.errors.BudgetExceeded`.
- **Retry with graceful degradation** — a failed or over-budget
  full-size experiment is retried after exponential backoff with its
  quick (reduced-scale) parameterization, and a success obtained that
  way is annotated as *degraded* rather than silently passed off as a
  full-quality result.
- **Checkpoint/resume** — finished results are persisted through a
  :class:`~repro.runtime.checkpoint.CheckpointStore` the moment they
  complete, and already-checkpointed experiments are skipped on
  resume.
- **Crash consistency** — when a :class:`~repro.runtime.journal.Journal`
  is attached, every state transition (attempt start/end, checkpoint
  flush, interruption) is journaled *write-ahead* with an fsync per
  record, and resume decisions come from the journal's recovery
  classification rather than bare checkpoint presence: the checkpoint
  store is a derived snapshot, the journal is the source of truth.
  Every record and worker attempt is stamped with the supervisor
  generation, so attempts of different supervisor runs stay distinct.
  The journal is also the campaign's one lifecycle log: worker kills,
  oracle verdicts, store-write retries and resume skips are journaled
  beside the state transitions for ``status`` and ``report``.

Sleep and clock are injectable so the retry/backoff/deadline behaviour
is deterministic under test.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentResult
from repro.obs import metrics as obs_metrics
from repro.obs import timeline as obs_timeline
from repro.obs import tracing
from repro.runtime.budget import Budget, activate
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.errors import (
    CheckpointCorruptError,
    CheckpointWriteError,
    ExperimentFailure,
)
from repro.runtime.journal import Journal, RecoveryReport, attempt_uid

#: Outcome statuses.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_FAILED = "failed"


class CampaignAborted(Exception):
    """Internal: a supervisor thread observed the engine's abort flag.

    Raised inside worker-pool threads after an interrupt so they
    unwind without recording half-finished outcomes; never escapes the
    pool."""


#: Signature of an attempt runner: ``(experiment_id, attempt, degraded,
#: kwargs, budget) -> (result, failure)`` with exactly one of the pair
#: non-None.  The in-process backend and the worker pool both implement
#: it, so the retry/degradation policy in :meth:`CampaignEngine.run_one`
#: is backend-agnostic.
AttemptRunner = Callable[
    [str, int, bool, Dict[str, object], Budget],
    Tuple[Optional[ExperimentResult], Optional[ExperimentFailure]],
]


@dataclass
class EngineConfig:
    """Campaign-wide policy knobs.

    Attributes:
        quick: Run every experiment at its quick parameterization from
            the start (results are *not* marked degraded: quick was
            asked for, not fallen back to).
        budget_seconds: Wall-clock allowance per attempt (None =
            unlimited), enforced cooperatively inside the attempt.
        max_attempts: Total attempts per experiment (first try
            included).
        backoff_base_seconds: Sleep before the first retry.
        backoff_factor: Multiplier applied per subsequent retry.
        jobs: Concurrent experiments on the worker-pool backend (each
            attempt in its own forked, supervised worker); ``0`` selects
            the in-process serial backend (debugging, unshippable
            runners).
        validate: Run the invariant oracles
            (:func:`repro.validate.oracles.validate_result`) over every
            successful attempt's result.  A result that fails them is
            *rejected* — converted into a
            :class:`~repro.runtime.errors.ResultRejectedError` failure
            that feeds the normal retry-with-degradation policy — so a
            buggy instrument cannot checkpoint plausible-but-wrong
            numbers as a finished experiment.
        hard_timeout_seconds: Hard per-attempt wall-clock deadline
            enforced by the supervisor with SIGTERM→SIGKILL (worker
            backend only).  Defaults to ``2×budget_seconds + 30`` when
            a budget is set, else unbounded.
        max_rss_mb: Address-space rlimit per worker (MiB); an OOM then
            kills one worker, not the campaign (worker backend only).
        term_grace_seconds: Grace between SIGTERM and SIGKILL.
        sleep, clock: Injectable time sources (tests pass fakes).
    """

    quick: bool = False
    budget_seconds: Optional[float] = None
    max_attempts: int = 3
    backoff_base_seconds: float = 0.5
    backoff_factor: float = 2.0
    jobs: int = 1
    validate: bool = False
    hard_timeout_seconds: Optional[float] = None
    max_rss_mb: Optional[int] = None
    term_grace_seconds: float = 5.0
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ValueError(
                f"budget_seconds must be positive (got {self.budget_seconds})"
            )
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0 (got {self.jobs})")
        if self.hard_timeout_seconds is not None and self.hard_timeout_seconds <= 0:
            raise ValueError(
                "hard_timeout_seconds must be positive "
                f"(got {self.hard_timeout_seconds})"
            )
        if self.max_rss_mb is not None and self.max_rss_mb <= 0:
            raise ValueError(f"max_rss_mb must be positive (got {self.max_rss_mb})")
        if self.term_grace_seconds < 0:
            raise ValueError("term_grace_seconds must be >= 0")

    def backoff_delay(self, retry_index: int) -> float:
        """Delay before the ``retry_index``-th retry (0-based)."""
        return self.backoff_base_seconds * self.backoff_factor**retry_index


@dataclass
class ExperimentOutcome:
    """Everything the campaign knows about one experiment.

    Attributes:
        experiment_id: The experiment.
        status: ``"ok"``, ``"degraded"``, or ``"failed"``.
        result: The :class:`ExperimentResult` (None when failed).
        failures: Captured failures, one per unsuccessful attempt.
        attempts: Attempts actually made.
        elapsed_seconds: Total wall-clock spent on the experiment.
        resumed: True when the outcome was loaded from a checkpoint
            instead of re-run.
    """

    experiment_id: str
    status: str
    result: Optional[ExperimentResult] = None
    failures: List[ExperimentFailure] = field(default_factory=list)
    attempts: int = 0
    elapsed_seconds: float = 0.0
    resumed: bool = False

    @property
    def succeeded(self) -> bool:
        return self.status in (STATUS_OK, STATUS_DEGRADED)

    def summary(self) -> str:
        extra = " (resumed)" if self.resumed else ""
        return (
            f"{self.experiment_id}: {self.status}{extra} "
            f"[{self.attempts} attempt(s), {self.elapsed_seconds:.1f}s, "
            f"{len(self.failures)} failure(s)]"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "status": self.status,
            "result": None if self.result is None else self.result.to_dict(),
            "failures": [f.to_dict() for f in self.failures],
            "attempts": self.attempts,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperimentOutcome":
        result = payload.get("result")
        return cls(
            experiment_id=str(payload["experiment_id"]),
            status=str(payload["status"]),
            result=None if result is None else ExperimentResult.from_dict(result),
            failures=[
                ExperimentFailure.from_dict(f)
                for f in payload.get("failures", [])
            ],
            attempts=int(payload.get("attempts", 0)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        )


@dataclass
class CampaignReport:
    """The aggregate outcome of one campaign run."""

    outcomes: List[ExperimentOutcome] = field(default_factory=list)

    @property
    def ok_ids(self) -> List[str]:
        return [o.experiment_id for o in self.outcomes if o.status == STATUS_OK]

    @property
    def degraded_ids(self) -> List[str]:
        return [
            o.experiment_id for o in self.outcomes if o.status == STATUS_DEGRADED
        ]

    @property
    def failed_ids(self) -> List[str]:
        return [o.experiment_id for o in self.outcomes if o.status == STATUS_FAILED]

    @property
    def succeeded(self) -> bool:
        """True when every experiment finished (possibly degraded)."""
        return not self.failed_ids

    def outcome(self, experiment_id: str) -> ExperimentOutcome:
        for outcome in self.outcomes:
            if outcome.experiment_id == experiment_id:
                return outcome
        raise KeyError(f"no outcome for experiment {experiment_id!r}")

    def render(self) -> str:
        """Human-readable campaign summary."""
        lines = ["== campaign summary =="]
        for outcome in self.outcomes:
            lines.append("  " + outcome.summary())
            for failure in outcome.failures:
                lines.append("    " + failure.summary())
        lines.append(
            f"  total: {len(self.ok_ids)} ok, {len(self.degraded_ids)} degraded,"
            f" {len(self.failed_ids)} failed"
        )
        return "\n".join(lines)


class CampaignEngine:
    """Run an experiment campaign with isolation, retry, and resume.

    Args:
        registry: experiment id -> ``(runner, kwargs)``.  ``runner`` is
            anything with a ``run(**kwargs) -> ExperimentResult``
            (the modules in :mod:`repro.experiments`), or a bare
            callable.
        quick_overrides: experiment id -> kwargs overriding the
            full-scale defaults for a reduced-size run; used both by
            ``--quick`` and as the degradation target after failures.
        config: Policy knobs (:class:`EngineConfig`).
        store: Optional checkpoint store enabling persist + resume.
        on_event: Optional callback ``(event, outcome_or_failure)``
            used by the CLI for progress lines; events are
            ``"start"``, ``"retry"``, ``"finish"``, ``"resume"``,
            ``"interrupted"``.
        journal: Optional write-ahead :class:`~repro.runtime.journal.Journal`.
            When present, every state transition is journaled (with an
            fsync) *before* the engine acts on it, and the commit point
            of an experiment becomes the journal's ``attempt-end``
            record rather than the checkpoint rename.
        recovery: Optional :class:`~repro.runtime.journal.RecoveryReport`
            from :func:`repro.runtime.journal.recover`.  When present,
            resume skips exactly the experiments recovery classified
            ``committed`` (in-doubt and lost ones re-run even if a
            checkpoint file exists); without it, resume falls back to
            checkpoint presence.
    """

    def __init__(
        self,
        registry: Mapping[str, Tuple[object, Dict[str, object]]],
        quick_overrides: Optional[Mapping[str, Dict[str, object]]] = None,
        config: Optional[EngineConfig] = None,
        store: Optional[CheckpointStore] = None,
        on_event: Optional[Callable[[str, object], None]] = None,
        journal: Optional[Journal] = None,
        recovery: Optional[RecoveryReport] = None,
    ) -> None:
        self.registry = dict(registry)
        self.quick_overrides = dict(quick_overrides or {})
        self.config = config or EngineConfig()
        self.store = store
        self.on_event = on_event
        self.journal = journal
        self.recovery = recovery
        # The store and callbacks are shared by worker-pool supervisor
        # threads; serialize access so checkpoint flushes and progress
        # lines never interleave.
        self._store_lock = threading.RLock()
        self._emit_lock = threading.Lock()
        self._abort = threading.Event()
        # Per-attempt observability detail (worker RSS peak, span
        # counts), keyed by attempt_uid; folded into metrics.json.
        self._obs_lock = threading.Lock()
        self._obs_attempts: Dict[str, Dict[str, object]] = {}

    @property
    def generation(self) -> int:
        """The supervisor generation stamped into journal records and
        worker attempts (0 when running without a journal)."""
        return self.journal.token if self.journal is not None else 0

    def journal_append(self, record_type: str, **fields: object) -> None:
        """Write-ahead one state transition (no-op without a journal)."""
        if self.journal is not None:
            self.journal.append(record_type, **fields)

    # -- public API --------------------------------------------------

    def run(self, experiment_ids: Optional[Sequence[str]] = None) -> CampaignReport:
        """Run (or resume) the campaign over ``experiment_ids``.

        Unknown ids raise ``KeyError`` before anything runs; failures
        *during* experiments never escape — they are captured into the
        returned report.  ``config.jobs == 0`` runs everything serially
        in-process; otherwise up to ``jobs`` experiments run
        concurrently, each attempt hard-isolated in its own forked,
        supervised worker process (:mod:`repro.runtime.workers`).

        A ``KeyboardInterrupt`` (Ctrl-C, or SIGTERM on the worker-pool
        backend) is re-raised, but only after live workers are killed,
        every already-finished outcome is flushed, a partial summary is
        written to the store, and an ``interrupted`` event is emitted —
        so ``--resume`` always has a valid store to start from.
        """
        wanted = list(experiment_ids) if experiment_ids else list(self.registry)
        unknown = [i for i in wanted if i not in self.registry]
        if unknown:
            raise KeyError(
                f"unknown experiments: {unknown}; choices: {list(self.registry)}"
            )
        if self.store is not None:
            manifest = {
                "experiments": self._manifest_ids(wanted),
                "quick": self.config.quick,
                "budget_seconds": self.config.budget_seconds,
                "max_attempts": self.config.max_attempts,
                "jobs": self.config.jobs,
                "validate": self.config.validate,
                "hard_timeout_seconds": self.config.hard_timeout_seconds,
                "max_rss_mb": self.config.max_rss_mb,
            }
            self._store_write_with_retry(
                lambda: self.store.write_manifest(manifest), "manifest"
            )
        self.journal_append(
            "campaign-start",
            experiments=wanted,
            quick=self.config.quick,
            jobs=self.config.jobs,
        )
        self._abort.clear()
        collected: List[ExperimentOutcome] = []
        try:
            with tracing.span(
                "campaign.run",
                experiments=len(wanted),
                jobs=self.config.jobs,
                quick=self.config.quick,
            ):
                if self.config.jobs == 0:
                    for experiment_id in wanted:
                        collected.append(self.run_one(experiment_id))
                else:
                    from repro.runtime.workers import WorkerPool

                    WorkerPool(self, jobs=self.config.jobs).run(wanted, collected)
        except KeyboardInterrupt:
            self._finalize_interrupt(collected, wanted)
            raise
        report = CampaignReport(outcomes=collected)
        self._write_summary("complete", collected, wanted)
        self._write_obs_snapshot()
        return report

    def run_one(
        self,
        experiment_id: str,
        attempt_runner: Optional[AttemptRunner] = None,
    ) -> ExperimentOutcome:
        """Run one experiment through the full recovery policy.

        ``attempt_runner`` executes a single attempt and is the backend
        seam: None selects the in-process executor; the worker pool
        passes its forked-worker executor.
        """
        with self._store_lock:
            if self.store is not None and self._resume_skips(experiment_id):
                outcome = self.store.load_outcome(experiment_id)
                outcome.resumed = True
                obs_metrics.inc("engine.resumed")
                self.journal_append("resumed", experiment_id=experiment_id)
                self._emit("resume", outcome)
                return outcome

        run_attempt = attempt_runner or self._attempt_in_process
        _, base_kwargs = self.registry[experiment_id]
        config = self.config
        started = config.clock()
        failures: List[ExperimentFailure] = []
        outcome: Optional[ExperimentOutcome] = None

        final_attempt = 0
        for attempt in range(1, config.max_attempts + 1):
            self._check_abort()
            # First attempt runs full-scale (unless the whole campaign
            # is quick); retries degrade to the quick parameterization.
            degraded = attempt > 1 and not config.quick
            kwargs = dict(base_kwargs)
            if config.quick or degraded:
                kwargs.update(self.quick_overrides.get(experiment_id, {}))
            uid = attempt_uid(experiment_id, self.generation, attempt)
            self.journal_append(
                "attempt-start",
                experiment_id=experiment_id,
                attempt=attempt,
                attempt_uid=uid,
                degraded=degraded,
            )
            self._emit("retry" if attempt > 1 else "start", experiment_id)
            budget = Budget(config.budget_seconds, clock=config.clock)
            obs_metrics.inc("engine.attempts")
            if attempt > 1:
                obs_metrics.inc("engine.retries")
            # Timeline rows written by an in-process attempt carry the
            # attempt identity; isolated workers stamp their own labels
            # from the spec (runner.worker_main).
            obs_timeline.set_labels(
                experiment_id=experiment_id, attempt_uid=uid
            )
            try:
                with tracing.span(
                    "engine.attempt",
                    experiment_id=experiment_id,
                    attempt=attempt,
                    attempt_uid=uid,
                    degraded=degraded,
                ):
                    result, failure = run_attempt(
                        experiment_id, attempt, degraded, kwargs, budget
                    )
                    if failure is None and config.validate:
                        failure = self._validate_attempt(
                            experiment_id, result, attempt, degraded
                        )
                        if failure is not None:
                            result = None
            finally:
                obs_timeline.clear_labels()
            self._note_attempt_obs(uid)
            if failure is not None:
                obs_metrics.inc(f"engine.failures.{failure.category}")
                failures.append(failure)
                # A failed attempt commits nothing; its attempt-end can
                # be journaled immediately.
                self.journal_append(
                    "attempt-end",
                    experiment_id=experiment_id,
                    attempt=attempt,
                    attempt_uid=uid,
                    status=STATUS_FAILED,
                    category=failure.category,
                )
                self._check_abort()
                if attempt < config.max_attempts:
                    self._backoff_sleep(config.backoff_delay(attempt - 1))
                continue
            if degraded:
                result.notes.append(
                    f"DEGRADED result: full-scale run failed "
                    f"({failures[-1].category}); reran with quick "
                    f"parameterization on attempt {attempt}"
                )
            outcome = ExperimentOutcome(
                experiment_id=experiment_id,
                status=STATUS_DEGRADED if degraded else STATUS_OK,
                result=result,
                failures=failures,
                attempts=attempt,
                elapsed_seconds=config.clock() - started,
            )
            final_attempt = attempt
            break

        if outcome is None:
            outcome = ExperimentOutcome(
                experiment_id=experiment_id,
                status=STATUS_FAILED,
                result=None,
                failures=failures,
                attempts=config.max_attempts,
                elapsed_seconds=config.clock() - started,
            )

        if self.store is not None:
            path = self._flush_outcome(outcome)
            # Commit protocol: checkpoint rename -> journal
            # checkpoint-flushed -> journal attempt-end.  A
            # crash in any gap is recoverable: before the flush record
            # the attempt is in-doubt (re-run); after it, recovery
            # promotes the valid checkpoint to committed; the
            # attempt-end record is the commit point proper.
            self.journal_append(
                "checkpoint-flushed",
                experiment_id=experiment_id,
                status=outcome.status,
                path=str(path.name),
            )
        if outcome.succeeded:
            # The successful attempt's end is journaled only now, after
            # the checkpoint flush — it is the commit record.
            uid = attempt_uid(experiment_id, self.generation, final_attempt)
            self.journal_append(
                "attempt-end",
                experiment_id=experiment_id,
                attempt=final_attempt,
                attempt_uid=uid,
                status=outcome.status,
            )
        obs_metrics.inc(f"engine.outcomes.{outcome.status}")
        self._write_obs_snapshot()
        self._emit("finish", outcome)
        return outcome

    def _manifest_ids(self, wanted: List[str]) -> List[str]:
        """Every id the run directory was ever asked for, first-seen
        order: a resume that names a subset keeps the rest in scope."""
        try:
            previous = self.store.read_manifest()
        except CheckpointCorruptError:
            previous = None
        if not previous or not isinstance(previous.get("experiments"), list):
            return wanted
        return list(dict.fromkeys([*previous["experiments"], *wanted]))

    def _resume_skips(self, experiment_id: str) -> bool:
        """Should resume skip ``experiment_id`` as already committed?

        With a recovery report (journal-backed resume) the journal's
        classification is authoritative: only ``committed`` experiments
        are skipped — an in-doubt or lost experiment re-runs even when
        a checkpoint file happens to exist.  Without one (legacy run
        dirs), checkpoint presence decides, as before.
        """
        if self.store is None:
            return False
        if self.recovery is not None:
            return (
                experiment_id in self.recovery.committed
                and self.store.has_result(experiment_id)
            )
        return self.store.has_result(experiment_id)

    def _store_write_with_retry(
        self,
        write: Callable[[], object],
        what: str,
        experiment_id: Optional[str] = None,
    ):
        """Run one store write with bounded retry on transient I/O faults.

        A transient ``ENOSPC``/``EIO`` (disk momentarily full, NFS
        hiccup) gets two retries after backoff; a persistent one
        becomes a typed
        :class:`~repro.runtime.errors.CheckpointWriteError`.  Every
        store write — manifest, outcome checkpoint, summary — goes
        through here, so no single hiccup at the checkpoint site can
        abort a campaign.
        """
        last_error: Optional[OSError] = None
        for flush_try in range(3):
            if flush_try:
                try:
                    self._backoff_sleep(
                        self.config.backoff_delay(flush_try - 1)
                    )
                except CampaignAborted:
                    pass  # the interrupt path still gets its retries
            try:
                return write()
            except OSError as exc:
                last_error = exc
                self.journal_append(
                    "checkpoint-retry",
                    experiment_id=experiment_id,
                    target=what,
                    flush_try=flush_try + 1,
                    error=str(exc),
                )
        raise CheckpointWriteError(
            f"cannot write {what} after 3 tries: {last_error}"
        ) from last_error

    def _flush_outcome(self, outcome: "ExperimentOutcome"):
        """Persist ``outcome`` with bounded retry on transient I/O faults.

        On persistent failure the journal has no ``attempt-end`` yet,
        so a resumed campaign re-runs the experiment instead of
        trusting a checkpoint that never hit the disk.
        """

        def write():
            with self._store_lock:
                if outcome.succeeded:
                    return self.store.save_outcome(outcome)
                return self.store.save_failure(outcome)

        return self._store_write_with_retry(
            write,
            f"checkpoint for {outcome.experiment_id!r}",
            outcome.experiment_id,
        )

    def _validate_attempt(
        self,
        experiment_id: str,
        result: ExperimentResult,
        attempt: int,
        degraded: bool,
    ) -> Optional[ExperimentFailure]:
        """Run the invariant oracles over a successful attempt's result.

        Returns None when the result passes; otherwise an
        :class:`ExperimentFailure` wrapping a
        :class:`~repro.runtime.errors.ResultRejectedError`, so the
        retry/degradation policy treats a rejected result exactly like
        a crashed attempt.
        """
        from repro.runtime.errors import ResultRejectedError
        from repro.validate.oracles import validate_result

        report = validate_result(result)
        self.journal_append(
            "validated",
            experiment_id=experiment_id,
            attempt=attempt,
            checks=report.checks_run,
            errors=len(report.errors),
            warnings=len(report.warnings),
            codes=report.codes() or None,
        )
        if report.ok:
            return None
        try:
            report.raise_if_failed(ResultRejectedError)
        except ResultRejectedError as exc:
            return ExperimentFailure.from_exception(
                experiment_id, exc, attempt=attempt, degraded=degraded
            )
        return None  # pragma: no cover - raise_if_failed always raises here

    # -- interruption ------------------------------------------------

    def abort(self) -> None:
        """Ask every in-flight supervisor thread to stand down."""
        self._abort.set()

    def _check_abort(self) -> None:
        if self._abort.is_set():
            raise CampaignAborted()

    def _backoff_sleep(self, delay: float) -> None:
        """Backoff that an interrupt can cut short.

        Injected fake sleeps (tests) are called as-is; the real sleep
        waits on the abort flag so Ctrl-C does not stall on a pending
        retry's backoff.
        """
        if self.config.sleep is not time.sleep:
            self.config.sleep(delay)
            self._check_abort()
            return
        if self._abort.wait(timeout=delay):
            raise CampaignAborted()

    def _finalize_interrupt(
        self, collected: List[ExperimentOutcome], wanted: Sequence[str]
    ) -> None:
        """Flush what finished and mark the run interrupted (satellite
        of the hard-isolation work: never lose completed outcomes to a
        Ctrl-C)."""
        try:
            self.journal_append(
                "interrupted",
                completed=len(collected),
                requested=len(wanted),
            )
        except OSError:
            pass  # a dying disk must not mask the interrupt itself
        self._write_summary("interrupted", collected, wanted)
        self._emit("interrupted", CampaignReport(outcomes=list(collected)))

    def _write_summary(
        self,
        status: str,
        collected: List[ExperimentOutcome],
        wanted: Sequence[str],
    ) -> None:
        if self.store is None:
            return

        def write():
            with self._store_lock:
                self.store.write_summary(
                    {
                        "status": status,
                        "requested": list(wanted),
                        "completed": [o.experiment_id for o in collected],
                        "statuses": {
                            o.experiment_id: o.status for o in collected
                        },
                    }
                )

        self._store_write_with_retry(write, "summary")
        self.journal_append("summary-flushed", status=status)

    # -- internals ---------------------------------------------------

    def _attempt_in_process(
        self,
        experiment_id: str,
        attempt: int,
        degraded: bool,
        kwargs: Dict[str, object],
        budget: Budget,
    ) -> Tuple[Optional[ExperimentResult], Optional[ExperimentFailure]]:
        """The in-process attempt executor (``jobs == 0``)."""
        runner, _ = self.registry[experiment_id]
        config = self.config
        attempt_started = config.clock()
        try:
            with activate(budget):
                result = self._invoke(runner, kwargs)
        except BaseException as exc:  # noqa: BLE001 — isolation is the point
            if isinstance(exc, (KeyboardInterrupt, SystemExit, CampaignAborted)):
                raise
            return None, ExperimentFailure.from_exception(
                experiment_id,
                exc,
                attempt=attempt,
                degraded=degraded,
                elapsed_seconds=config.clock() - attempt_started,
            )
        return result, None

    @staticmethod
    def _invoke(runner: object, kwargs: Dict[str, object]) -> ExperimentResult:
        run = getattr(runner, "run", runner)
        result = run(**kwargs)
        if not isinstance(result, ExperimentResult):
            raise TypeError(
                f"experiment runner {runner!r} returned {type(result).__name__},"
                " expected ExperimentResult"
            )
        return result

    # -- observability ------------------------------------------------

    def record_worker_obs(self, spec, obs: Dict[str, object]) -> None:
        """Fold one worker's shipped telemetry into the campaign rollup.

        Called by the worker supervisor (from its pool thread, inside
        the attempt span) with the ``obs`` block of a worker payload:
        worker-process metrics merge into the campaign registry, worker
        spans are re-emitted into the campaign span log under the
        current attempt span, and the RSS peak is kept per attempt_uid
        for ``metrics.json``.
        """
        uid = attempt_uid(spec.experiment_id, spec.generation, spec.attempt)
        entry: Dict[str, object] = {}
        rss = obs.get("rss_peak_kb")
        if isinstance(rss, (int, float)):
            entry["rss_peak_kb"] = int(rss)
        metrics_snap = obs.get("metrics")
        if isinstance(metrics_snap, dict) and obs_metrics.obs_enabled():
            try:
                obs_metrics.get_registry().merge_snapshot(metrics_snap)
                entry["metrics_merged"] = True
            except (ValueError, TypeError, KeyError):
                entry["metrics_merged"] = False
        spans = obs.get("spans")
        if isinstance(spans, list) and spans:
            tracer = tracing.get_tracer()
            if tracer is not None:
                entry["spans"] = tracer.ingest(
                    spans, parent_id=tracer.current_span_id()
                )
        with self._obs_lock:
            self._obs_attempts.setdefault(uid, {}).update(entry)

    def _note_attempt_obs(self, uid: str) -> None:
        """Ensure every attempt has a metrics.json entry.

        An in-process (``jobs == 0``) attempt has no worker to ship its
        RSS peak, so it gets this process's.  A worker attempt that
        died before shipping telemetry keeps no RSS: the supervisor's
        own peak says nothing about the worker's.
        """
        if not obs_metrics.obs_enabled():
            return
        with self._obs_lock:
            entry = self._obs_attempts.setdefault(uid, {})
            if self.config.jobs == 0:
                try:
                    import resource

                    entry["rss_peak_kb"] = int(
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    )
                except (ImportError, OSError):  # pragma: no cover - platform
                    pass
        self._write_obs_snapshot()

    def _write_obs_snapshot(self) -> None:
        """Atomically refresh ``<run_dir>/metrics.json``.

        Best-effort telemetry: an unwritable snapshot is logged, never
        fatal — observability must not be able to fail a campaign.
        """
        if self.store is None or not obs_metrics.obs_enabled():
            return
        from repro.obs.metrics import METRICS_FORMAT
        from repro.runtime.records import atomic_write_text

        tracer = tracing.get_tracer()
        with self._obs_lock:
            snapshot = {
                "format": METRICS_FORMAT,
                "written_wall": time.time(),
                "trace_id": tracer.trace_id if tracer is not None else None,
                "campaign": obs_metrics.get_registry().snapshot(),
                "attempts": {
                    uid: dict(entry)
                    for uid, entry in sorted(self._obs_attempts.items())
                },
            }
        import json as _json

        try:
            atomic_write_text(
                self.store.run_dir / obs_metrics.METRICS_FILENAME,
                _json.dumps(snapshot, indent=1, sort_keys=True),
                site="metrics",
                durable=False,
            )
        except OSError as exc:
            self.journal_append("obs-snapshot-failed", error=str(exc))

    def _emit(self, event: str, payload: object) -> None:
        if self.on_event is not None:
            with self._emit_lock:
                self.on_event(event, payload)
