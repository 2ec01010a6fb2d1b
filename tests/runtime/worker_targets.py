"""Module-level experiment runners for worker-backend tests.

The hard-isolation backend ships runners by importable reference, so
the usual in-test ``FakeExperiment`` instances cannot cross the
process boundary.  Everything here is a module-level function a
worker can re-import by name (the supervisor propagates its
``sys.path`` through ``PYTHONPATH`` to the fork server, so this
test-only module resolves inside workers too).
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentResult


def run_ok(**kwargs) -> ExperimentResult:
    """A healthy experiment: echoes its kwargs into the result notes."""
    result = ExperimentResult(
        experiment_id="worker-target", title="worker target"
    )
    for key, value in sorted(kwargs.items()):
        result.notes.append(f"param {key}={value}")
    return result


def run_noisy(**kwargs) -> ExperimentResult:
    """Spams stdout before returning, to attack the wire protocol."""
    print("stray stdout line that must not corrupt the payload" * 50)
    return run_ok(**kwargs)


def run_crash(**kwargs) -> ExperimentResult:
    """Raises a taxonomy error (classified inside the worker)."""
    from repro.runtime.errors import SimulationError

    raise SimulationError("deliberate crash in worker target")


def run_wrong_type(**kwargs) -> int:
    """Returns a non-ExperimentResult (classified inside the worker)."""
    return 42


def run_sigkill(**kwargs) -> ExperimentResult:
    """Dies on an un-catchable signal, like a segfault or OOM kill,
    after a last word on stderr."""
    import os
    import signal
    import sys

    print("last words before SIGKILL", file=sys.stderr, flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
    return run_ok(**kwargs)  # pragma: no cover - never reached


#: Touched by :func:`run_alloc`: comfortably above a worker's own
#: footprint (~35 MiB), so a reaped worker shows in ``RUSAGE_CHILDREN``.
ALLOC_MB = 200

#: Module state a worker may mutate; a fresh worker always sees 0.
_calls = 0


def run_alloc(crash: bool = False, interrupt_pid: int = 0, **kwargs) -> ExperimentResult:
    """Touch :data:`ALLOC_MB` MiB, then return, die, or interrupt.

    ``crash`` SIGKILLs the worker after the allocation;
    ``interrupt_pid`` sends SIGINT to that process (the supervisor)
    and then waits to be killed.
    """
    import os
    import signal
    import time

    import numpy as np

    data = np.ones(ALLOC_MB << 20, dtype=np.uint8)
    if crash:
        os.kill(os.getpid(), signal.SIGKILL)
    if interrupt_pid:
        os.kill(interrupt_pid, signal.SIGINT)
        time.sleep(120)
    result = run_ok(**kwargs)
    result.notes.append(f"touched {int(data.sum()) >> 20} MiB")
    return result


def run_count_calls(**kwargs) -> ExperimentResult:
    """Increment a module global and report its value."""
    global _calls
    _calls += 1
    result = run_ok(**kwargs)
    result.notes.append(f"calls={_calls}")
    return result


def run_echo_env(name: str = "", **kwargs) -> ExperimentResult:
    """Report the worker's value of environment variable ``name``."""
    import os

    result = run_ok(**kwargs)
    result.notes.append(f"{name}={os.environ.get(name)}")
    return result


def run_atomic_write(path: str = "", **kwargs) -> ExperimentResult:
    """Durably write ``path`` and report the worker's I/O seam."""
    from repro.runtime import records

    records.atomic_write_text(path, "written", site="journal")
    result = run_ok(**kwargs)
    result.notes.append(f"io_hook={records.io_hook}")
    return result


def _factory():
    def local_runner(**kwargs):  # pragma: no cover - never shipped
        return run_ok(**kwargs)

    return local_runner


#: A closure: has a qualname, but one containing ``<locals>`` — not
#: shippable by reference.
local_runner = _factory()
