"""Shared fixtures for the test suite.

Fixtures are deliberately small: working-set structure shows up at tiny
problem sizes, and the paper's own Barnes-Hut / volume rendering
figures use reduced problems for exactly this reason.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.apps.barnes_hut.bodies import plummer_model, uniform_cube
from repro.apps.volrend.volume import synthetic_head
from repro.mem.trace import Trace, TraceBuilder


@pytest.fixture(scope="session")
def small_bodies():
    """128 Plummer-distributed bodies (session-scoped: read-only)."""
    return plummer_model(128, seed=7)


@pytest.fixture(scope="session")
def cube_bodies():
    """64 bodies uniform in the unit cube."""
    return uniform_cube(64, seed=3)


@pytest.fixture(scope="session")
def head_volume():
    """A 24^3 synthetic head phantom."""
    return synthetic_head(24)


@pytest.fixture
def sequential_trace():
    """A simple streaming trace: 512 distinct double words, read once."""
    return Trace.from_addresses(range(0, 512 * 8, 8))


@pytest.fixture
def looping_trace():
    """A trace that sweeps 64 double words four times (high reuse)."""
    builder = TraceBuilder()
    for _ in range(4):
        builder.read_range(0, 64)
    return builder.build()


def random_trace(num_refs: int, num_blocks: int, seed: int = 0) -> Trace:
    """A uniformly random reference stream (helper, not a fixture)."""
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, num_blocks, size=num_refs) * 8
    kinds = rng.integers(0, 2, size=num_refs).astype(np.uint8)
    return Trace(addrs.astype(np.int64), kinds)


@contextmanager
def count_kernel_calls():
    """Count vector-kernel runs per kind while the block is active.

    Wraps every entry of :data:`repro.mem.kernels.KERNELS`, which
    :func:`~repro.mem.kernels.guard_run` looks up at call time; yields a
    :class:`collections.Counter` keyed by kernel kind.
    """
    from repro.mem import kernels

    calls: Counter = Counter()

    def counting(kind, fn):
        def run(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return run

    wrapped = {kind: counting(kind, fn) for kind, fn in kernels.KERNELS.items()}
    with mock.patch.dict(kernels.KERNELS, wrapped):
        yield calls


@pytest.fixture
def kernel_calls():
    """:func:`count_kernel_calls` for the whole test."""
    with count_kernel_calls() as calls:
        yield calls
