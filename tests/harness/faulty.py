"""Failing experiment runners: the faults a campaign must survive.

:func:`arm` swaps planned experiments of a registry for :func:`run`,
which fails the way its fault kind says on the experiment's first
``attempts`` attempts and then stands down and runs the real runner.
The failure travels the genuine path: the engine or the worker
classifies whatever the runner raises, how it hangs, or how it dies.

- ``crash`` — raise a taxonomy exception (``SimulationError`` unless
  the plan names another class of :mod:`repro.runtime.errors`);
- ``hang`` — spin on the ambient budget until it raises
  ``BudgetExceeded``, as a runaway simulation loop would;
- ``hang-hard`` — a busy loop that never polls the budget: only the
  worker supervisor's SIGTERM/SIGKILL ends it;
- ``memhog`` — allocate without bound until the worker's rlimit fires;
- ``die`` — ``os._exit`` (status ``exit_code``, default 1) without a
  payload, like a segfault.

``hang-hard``, ``memhog`` and ``die`` take down whatever process runs
them, so arm them only for the worker backend (``jobs >= 1``).

A runner cannot see its attempt number, and a forked worker's memory
dies with it, so each attempt appends one line to
``<fault_dir>/<experiment>.attempts``: the kind it fired, or ``-``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

from repro.experiments.runner import ExperimentResult
from repro.runtime import errors
from repro.runtime.budget import active_budget
from repro.runtime.workers import resolve_runner_ref, runner_ref

KINDS = ("crash", "hang", "hang-hard", "memhog", "die")

#: The reserved kwarg carrying the fault into :func:`run`.
FAULT_KWARG = "fault"


def corrupt_file(path: Union[str, Path], offset: int = -1, flip: int = 0xFF) -> None:
    """XOR one byte of ``path`` in place (negative offsets from the end)."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"cannot corrupt empty file {path}")
    data[offset] ^= flip
    path.write_bytes(bytes(data))


def fault(kind: str, attempts: int = 1, exception: str = "SimulationError") -> Dict[str, object]:
    """One planned fault (validated)."""
    if kind not in KINDS:
        raise ValueError(f"unknown fault kind {kind!r}; choices: {', '.join(KINDS)}")
    if attempts < 1:
        raise ValueError("fail attempts must be >= 1")
    return {"kind": kind, "attempts": attempts, "exception": exception}


def parse_plan(entries: List[str]) -> Dict[str, Dict[str, object]]:
    """``ID=KIND[:ATTEMPTS]`` entries -> a plan for :func:`arm`."""
    plan = {}
    for entry in entries:
        experiment_id, sep, rest = entry.partition("=")
        kind, _, attempts = rest.partition(":")
        if not sep or not experiment_id or not kind:
            raise ValueError(f"--inject-fault {entry!r}: expected ID=KIND[:ATTEMPTS]")
        try:
            plan[experiment_id] = fault(kind, int(attempts or 1))
        except ValueError as exc:
            raise ValueError(f"--inject-fault {entry!r}: {exc}") from None
    return plan


def arm(
    registry: Mapping[str, Tuple[object, Dict[str, object]]],
    plan: Mapping[str, Dict[str, object]],
    fault_dir: Union[str, Path],
) -> Dict[str, Tuple[object, Dict[str, object]]]:
    """A copy of ``registry`` with each planned experiment failing.

    A shippable runner travels by reference; any other stays an object,
    which only the in-process backend (``jobs=0``) can run.
    """
    armed = dict(registry)
    for experiment_id, planned in plan.items():
        runner, kwargs = registry[experiment_id]
        try:
            inner: object = runner_ref(runner)
        except TypeError:
            inner = runner
        armed[experiment_id] = (run, {**kwargs, FAULT_KWARG: {
            **planned, "id": experiment_id, "dir": str(fault_dir), "runner": inner,
        }})
    return armed


def fired(fault_dir: Union[str, Path]) -> List[Tuple[str, int, str]]:
    """``(experiment_id, attempt, kind)`` for every fault that fired."""
    found = []
    for path in sorted(Path(fault_dir).glob("*.attempts")):
        for attempt, kind in enumerate(path.read_text().split(), start=1):
            if kind != "-":
                found.append((path.stem, attempt, kind))
    return found


def run(fault: Dict[str, object], **kwargs: object) -> ExperimentResult:
    """The registered runner: fail, or stand down and run the real one."""
    experiment_id = str(fault["id"])
    path = Path(str(fault["dir"])) / f"{experiment_id}.attempts"
    attempt = len(path.read_text().split()) + 1 if path.exists() else 1
    kind = str(fault["kind"]) if attempt <= int(fault["attempts"]) else "-"
    with open(path, "a") as log:
        log.write(kind + "\n")
    if kind != "-":
        FIRE[kind](fault, experiment_id, attempt)
    inner = fault["runner"]
    if isinstance(inner, str):
        inner = resolve_runner_ref(inner)
    return getattr(inner, "run", inner)(**kwargs)


def _crash(fault, experiment_id: str, attempt: int) -> None:
    exception = getattr(errors, str(fault["exception"]))
    raise exception(f"injected fault (experiment {experiment_id}, attempt {attempt})")


def _hang(fault, experiment_id: str, attempt: int) -> None:
    budget = active_budget()
    if budget is None or budget.seconds is None:
        # An unbudgeted cooperative hang would wedge the test itself.
        raise errors.ExperimentError(
            f"cooperative hang fault for {experiment_id!r} requires a finite budget"
        )
    while True:
        budget.check(f"injected hang in {experiment_id}")


def _hang_hard(fault, experiment_id: str, attempt: int) -> None:
    while True:
        pass


def _memhog(fault, experiment_id: str, attempt: int) -> None:
    hog = []
    while True:
        block = bytearray(16 << 20)
        block[::4096] = b"\xff" * len(block[::4096])  # touch every page
        hog.append(block)


def _die(fault, experiment_id: str, attempt: int) -> None:
    os._exit(int(fault.get("exit_code", 1)))


FIRE = {
    "crash": _crash,
    "hang": _hang,
    "hang-hard": _hang_hard,
    "memhog": _memhog,
    "die": _die,
}
