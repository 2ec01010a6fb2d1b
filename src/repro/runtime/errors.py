"""Error taxonomy and structured failure records for the campaign engine.

Every failure the engine captures is classified into one of four
categories, mirroring the three phases of a trace-driven experiment
(generate a trace, simulate it, analyze the results) plus the budget
mechanism:

- :class:`TraceGenerationError` — the application-level trace generator
  (``repro.apps.*``) failed.
- :class:`SimulationError` — the memory-system instrument
  (``repro.mem``) failed.
- :class:`AnalysisError` — knee detection, model comparison, or report
  assembly (``repro.core`` / the experiment driver itself) failed.
- :class:`BudgetExceeded` — the experiment's wall-clock budget ran out
  (raised by the cooperative deadline checks in the simulation loops).

The hard-isolation backend (:mod:`repro.runtime.workers`) adds a
worker branch for failures of the containing *process* rather than the
experiment code: :class:`WorkerCrashError` (died without a payload),
:class:`WorkerTimeoutError` (killed at the hard deadline), and
:class:`WorkerMemoryError` (hit its address-space rlimit).

Exceptions that are not already taxonomy members are classified by
walking their traceback and attributing the failure to the deepest
``repro`` layer that appears in it (:func:`classify_exception`).
"""

from __future__ import annotations

import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Dict, Optional, Type


class ExperimentError(Exception):
    """Base class of the campaign error taxonomy."""

    #: Short machine-readable category name, overridden by subclasses.
    category = "experiment"


class TraceGenerationError(ExperimentError):
    """Trace generation (``repro.apps``) failed."""

    category = "trace-generation"


class SimulationError(ExperimentError):
    """Cache/memory simulation (``repro.mem``) failed."""

    category = "simulation"


class KernelDivergenceError(SimulationError):
    """A vectorized simulation kernel returned a result that breaks a
    scalar invariant of its chunk (counts that do not match the chunk,
    a decreasing counter, more misses than references).  Raised by
    :func:`repro.mem.kernels.guard_run` before the simulator is touched;
    it fails the attempt like any other simulation error."""

    category = "kernel-divergence"


class AnalysisError(ExperimentError):
    """Analysis or report assembly failed."""

    category = "analysis"


class BudgetExceeded(ExperimentError):
    """An experiment exceeded its wall-clock budget."""

    category = "budget"


class CheckpointCorruptError(ExperimentError):
    """A checkpoint file failed its integrity check on load."""

    category = "checkpoint-corrupt"


class CheckpointWriteError(ExperimentError):
    """The durability layer could not persist a checkpoint (ENOSPC,
    EIO, ...) even after a retry.  The campaign state on disk is still
    consistent — the journal never recorded the commit — but the run
    cannot honestly continue claiming results it cannot store."""

    category = "checkpoint-write"


class JournalError(ExperimentError):
    """Base class of the write-ahead-journal branch."""

    category = "journal"


class JournalCorruptError(JournalError):
    """The journal has damage *before* its tail — something no crash of
    the single-writer append discipline can produce.  Recovery refuses
    to truncate through committed records; a human (or ``validate``)
    must look."""

    category = "journal-corrupt"


class ValidationError(ExperimentError):
    """Base class of the result-integrity branch: an artifact or result
    failed a :mod:`repro.validate` check.  These are *rejections*, not
    crashes — every validator and fuzz target raises (or records) a
    subclass of this instead of propagating raw exceptions."""

    category = "validation"


class ResultRejectedError(ValidationError):
    """An :class:`~repro.experiments.runner.ExperimentResult` violated
    an invariant oracle (miss rate out of range, non-monotone curve,
    ...).  Raised by the engine's ``--validate`` post-attempt hook so
    the rejection feeds the ordinary retry-with-degradation policy."""

    category = "result-rejected"


class SelfCheckError(ValidationError):
    """An application's mathematical self-check failed (LU residual,
    CG convergence, FFT round-trip, Barnes-Hut momentum conservation,
    volume-renderer octree bounds)."""

    category = "self-check"


class WorkerError(ExperimentError):
    """Base class for failures of the *worker process* rather than the
    experiment code it was running (hard-isolation backend)."""

    category = "worker"


class WorkerCrashError(WorkerError):
    """A worker process died (exit code, signal, or unusable payload)
    without delivering a classified result."""

    category = "worker-crash"


class WorkerTimeoutError(WorkerError):
    """The supervisor killed a worker at its hard wall-clock deadline
    (SIGTERM then SIGKILL) — the hang was not cooperatively catchable."""

    category = "worker-timeout"


class WorkerMemoryError(WorkerError):
    """A worker hit its address-space rlimit (``--max-rss-mb``) and the
    allocation failure was contained to that one worker."""

    category = "worker-rlimit"


#: Module-prefix -> taxonomy class, most specific attribution first.
_LAYER_CATEGORIES = (
    ("repro.apps", TraceGenerationError),
    ("repro.mem", SimulationError),
)


def classify_exception(exc: BaseException) -> Type[ExperimentError]:
    """Map an arbitrary exception onto the taxonomy.

    Taxonomy members classify as themselves.  Anything else is
    attributed by traceback: the deepest frame inside ``repro.apps``
    marks a trace-generation failure, the deepest frame inside
    ``repro.mem`` a simulation failure, and everything else an
    analysis failure.
    """
    if isinstance(exc, ExperimentError):
        return type(exc)
    deepest: Dict[str, Type[ExperimentError]] = {}
    order = []
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        for prefix, category in _LAYER_CATEGORIES:
            if module == prefix or module.startswith(prefix + "."):
                deepest[prefix] = category
                order.append(prefix)
        tb = tb.tb_next
    if order:
        return deepest[order[-1]]
    return AnalysisError


@dataclass
class ExperimentFailure:
    """One captured failure of one experiment attempt.

    Attributes:
        experiment_id: The failed experiment.
        attempt: 1-based attempt number within the retry loop.
        category: Taxonomy category name (``"simulation"``, ...).
        error_type: The concrete exception class name.
        message: ``str(exception)``.
        traceback_text: Formatted traceback for forensics.
        degraded: True when the failed attempt already ran with the
            degraded (quick) parameterization.
        elapsed_seconds: Wall-clock time the attempt consumed.
        timestamp: Unix time the failure was recorded.
    """

    experiment_id: str
    attempt: int
    category: str
    error_type: str
    message: str
    traceback_text: str = ""
    degraded: bool = False
    elapsed_seconds: float = 0.0
    timestamp: float = field(default_factory=time.time)

    @classmethod
    def from_exception(
        cls,
        experiment_id: str,
        exc: BaseException,
        attempt: int = 1,
        degraded: bool = False,
        elapsed_seconds: float = 0.0,
    ) -> "ExperimentFailure":
        """Capture ``exc`` (with classification and traceback)."""
        return cls(
            experiment_id=experiment_id,
            attempt=attempt,
            category=classify_exception(exc).category,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback_text="".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            ),
            degraded=degraded,
            elapsed_seconds=elapsed_seconds,
        )

    def summary(self) -> str:
        """One-line description used in campaign reports."""
        mode = "degraded" if self.degraded else "full"
        return (
            f"{self.experiment_id} attempt {self.attempt} ({mode}): "
            f"[{self.category}] {self.error_type}: {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "attempt": self.attempt,
            "category": self.category,
            "error_type": self.error_type,
            "message": self.message,
            "traceback_text": self.traceback_text,
            "degraded": self.degraded,
            "elapsed_seconds": self.elapsed_seconds,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperimentFailure":
        return cls(
            experiment_id=str(payload["experiment_id"]),
            attempt=int(payload["attempt"]),
            category=str(payload["category"]),
            error_type=str(payload["error_type"]),
            message=str(payload["message"]),
            traceback_text=str(payload.get("traceback_text", "")),
            degraded=bool(payload.get("degraded", False)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            timestamp=float(payload.get("timestamp", 0.0)),
        )
