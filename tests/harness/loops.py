"""The per-reference loops on demand: the reference semantics the kernels
are held to.

Every simulator reaches the numpy kernels through one call, looked up
on the module when it runs: ``kernels.guard_run(kind, sim, trace, ...)``.
:func:`loops_only` patches that function to decline every chunk, so
each simulator runs its pure-Python loop, as it does for chunks outside
the kernels' domain.  The kernels and the real guard are untouched.

:func:`arm` wraps every runner of a registry in :func:`run`, which holds
the real runner to the loops.  Runners ship to forked workers by
reference, so the loops reach the workers too; ``python -m
tests.harness.cli --loops-only ARGS`` runs the real CLI that way.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Mapping, Tuple
from unittest import mock

from repro.experiments.runner import ExperimentResult
from repro.mem import kernels
from repro.runtime.workers import resolve_runner_ref, runner_ref

#: The reserved kwarg carrying the real runner into :func:`run`.
RUNNER_KWARG = "loops_runner"


def _decline(kernel, sim, trace, budget=None, **options) -> bool:
    return False


@contextmanager
def loops_only(held: bool = True):
    """Run every simulator chunk on its per-reference loop while active;
    ``held=False`` changes nothing (for tests run both ways)."""
    if not held:
        yield
        return
    with mock.patch.object(kernels, "guard_run", _decline):
        yield


def arm(
    registry: Mapping[str, Tuple[object, Dict[str, object]]],
) -> Dict[str, Tuple[object, Dict[str, object]]]:
    """A copy of ``registry`` with every runner held to the loops.

    A shippable runner travels by reference; any other stays an object,
    which only the in-process backend (``jobs=0``) can run.
    """
    armed = {}
    for experiment_id, (runner, kwargs) in registry.items():
        try:
            inner: object = runner_ref(runner)
        except TypeError:
            inner = runner
        armed[experiment_id] = (run, {**kwargs, RUNNER_KWARG: inner})
    return armed


def run(loops_runner: object, **kwargs: object) -> ExperimentResult:
    """The registered runner: the real one, inside :func:`loops_only`."""
    if isinstance(loops_runner, str):
        loops_runner = resolve_runner_ref(loops_runner)
    with loops_only():
        return getattr(loops_runner, "run", loops_runner)(**kwargs)
