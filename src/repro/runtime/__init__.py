"""Fault-tolerant campaign runtime.

The paper's evaluation is a long trace-driven campaign: 19 experiments,
several of which generate millions of references (Barnes-Hut force
phases, Figure-6 scale).  This subpackage turns that campaign from a
fragile for-loop into a pipeline that survives partial failure:

- :mod:`repro.runtime.errors` — the error taxonomy
  (:class:`TraceGenerationError`, :class:`SimulationError`,
  :class:`AnalysisError`, :class:`BudgetExceeded`) and the structured
  :class:`ExperimentFailure` record the engine captures instead of
  letting one exception abort the whole run.
- :mod:`repro.runtime.budget` — cooperative wall-clock budgets.  A
  :class:`Budget` is installed around each experiment; the
  trace-simulation loops in :mod:`repro.mem` poll it and raise
  :class:`BudgetExceeded` when the deadline passes, so a runaway
  experiment cannot hang the campaign.
- :mod:`repro.runtime.checkpoint` — completed results are serialized
  to a run directory with atomic write-rename and a content checksum;
  ``python -m repro.experiments --resume <run-dir>`` skips them.
- :mod:`repro.runtime.engine` — the :class:`CampaignEngine` that ties
  it together: isolation per experiment, retry with exponential
  backoff, and graceful degradation to the quick parameterization.
- :mod:`repro.runtime.workers` — hard process isolation: each attempt
  in its own supervised worker, forked from a preloaded fork server
  (:mod:`repro.runtime.forkserver`), with SIGTERM→SIGKILL deadlines,
  address-space rlimits, and worker-death classification
  (:class:`WorkerCrashError` / :class:`WorkerTimeoutError` /
  :class:`WorkerMemoryError`); the default backend of the engine.
- :mod:`repro.runtime.events` — structured JSONL event log
  (``events.jsonl`` in the run directory) for campaign post-mortems.
- :mod:`repro.runtime.records` — the one framed record log behind
  every append-only artifact, and the shared crash-consistent atomic
  write (file fsync + rename + directory fsync) with its site-tagged
  syscalls and their one test seam, :data:`~repro.runtime.records.io_hook`.
- :mod:`repro.runtime.journal` — the append-only, CRC-framed,
  fsync-disciplined write-ahead journal (``journal.wal``) of campaign
  state transitions, the idempotent :func:`recover` that reconciles it
  with the checkpoint store after a crash, and the run directory's
  supervisor lock (``supervisor.lock``): an exclusive ``flock`` that
  refuses a second supervisor and that the kernel drops when its
  holder dies.

Layering note: :mod:`repro.mem` polls the ambient budget, so this
package's ``__init__`` eagerly imports only the dependency-free
``errors`` and ``budget`` modules; the engine/checkpoint/journal names
(which sit *above* :mod:`repro.experiments`) are loaded lazily on first
attribute access to keep the import graph acyclic.
"""

from importlib import import_module

from repro.runtime.budget import Budget, activate, active_budget, check_active_budget
from repro.runtime.errors import (
    AnalysisError,
    BudgetExceeded,
    CheckpointCorruptError,
    CheckpointWriteError,
    ExperimentError,
    ExperimentFailure,
    JournalCorruptError,
    JournalError,
    SimulationError,
    TraceFileWriteError,
    TraceGenerationError,
    WorkerCrashError,
    WorkerError,
    WorkerMemoryError,
    WorkerTimeoutError,
    classify_exception,
)

#: name -> defining module, for the lazily imported upper layer.
_LAZY = {
    "CheckpointStore": "repro.runtime.checkpoint",
    "file_lock": "repro.runtime.checkpoint",
    "EventLog": "repro.runtime.events",
    "read_events": "repro.runtime.events",
    "CampaignEngine": "repro.runtime.engine",
    "CampaignReport": "repro.runtime.engine",
    "EngineConfig": "repro.runtime.engine",
    "ExperimentOutcome": "repro.runtime.engine",
    "AttemptSpec": "repro.runtime.workers",
    "WorkerPool": "repro.runtime.workers",
    "WorkerSupervisor": "repro.runtime.workers",
    "runner_ref": "repro.runtime.workers",
    "resolve_runner_ref": "repro.runtime.workers",
    "atomic_write_bytes": "repro.runtime.records",
    "atomic_write_text": "repro.runtime.records",
    "Journal": "repro.runtime.journal",
    "JournalReplay": "repro.runtime.journal",
    "RecoveryReport": "repro.runtime.journal",
    "attempt_uid": "repro.runtime.journal",
    "read_journal": "repro.runtime.journal",
    "recover": "repro.runtime.journal",
    "truncate_torn_tail": "repro.runtime.journal",
}

__all__ = [
    "AnalysisError",
    "AttemptSpec",
    "Budget",
    "BudgetExceeded",
    "CampaignEngine",
    "CampaignReport",
    "CheckpointCorruptError",
    "CheckpointStore",
    "CheckpointWriteError",
    "EngineConfig",
    "EventLog",
    "ExperimentError",
    "ExperimentFailure",
    "ExperimentOutcome",
    "Journal",
    "JournalCorruptError",
    "JournalError",
    "JournalReplay",
    "RecoveryReport",
    "SimulationError",
    "TraceFileWriteError",
    "TraceGenerationError",
    "WorkerCrashError",
    "WorkerError",
    "WorkerMemoryError",
    "WorkerPool",
    "WorkerSupervisor",
    "WorkerTimeoutError",
    "activate",
    "active_budget",
    "atomic_write_bytes",
    "atomic_write_text",
    "attempt_uid",
    "check_active_budget",
    "classify_exception",
    "file_lock",
    "read_events",
    "read_journal",
    "recover",
    "resolve_runner_ref",
    "runner_ref",
    "truncate_torn_tail",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
