"""Shared fixtures for the test suite.

Fixtures are deliberately small: working-set structure shows up at tiny
problem sizes, and the paper's own Barnes-Hut / volume rendering
figures use reduced problems for exactly this reason.
"""

from __future__ import annotations

import shutil
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.apps.barnes_hut.bodies import plummer_model, uniform_cube
from repro.apps.volrend.volume import synthetic_head
from repro.mem.trace import Trace
from tests.harness.builder import ReferenceBuilder

#: A ``stream/`` subtree as the out-of-core mode of earlier versions
#: left it in a run directory (a 96-reference trace, profiled once):
#: one ``.trd`` trace directory with ``manifest.json``, ``shards.wal``
#: and ``shard-00000.npz``, and under ``checkpoints/`` one simulator
#: snapshot (``.ckpt``) with its ``.ckpt.wal``.  Written by that code
#: before it was removed; nothing reads these files now.
LEGACY_STREAM_DIR = Path(__file__).parent / "data" / "legacy_stream" / "stream"

#: A ``perf-archive.jsonl`` as the removed cross-campaign performance
#: archive of earlier versions wrote it: one campaign row and one
#: benchmark row (``PFA1`` records), then the torn half-row an
#: interrupted append leaves.  Nothing reads it now.
LEGACY_ARCHIVE = Path(__file__).parent / "data" / "legacy_archive" / "perf-archive.jsonl"

#: An ``events.jsonl`` as earlier versions wrote it beside the journal
#: (``EVT1`` records): a ``--quick`` campaign of ``table1`` and
#: ``table2`` whose first ``table2`` worker was killed at its hard
#: deadline and retried, then the torn half-record an interrupted
#: append leaves.  Nothing reads it now.
LEGACY_EVENTS = Path(__file__).parent / "data" / "legacy_events" / "events.jsonl"

#: ``timeline.jsonl`` rows as earlier versions wrote them (row format
#: version 1, every ``stackdist`` row repeating its capacity ladder as
#: ``cache_sizes``): the fig2 and fig5 rows of a default ``--quick
#: --run-dir`` campaign, one attempt each.  fig5's rows segment into
#: three phases.
LEGACY_TIMELINE = Path(__file__).parent / "data" / "legacy_timeline" / "timeline.jsonl"


def plant_legacy_stream(run_dir) -> Path:
    """Copy :data:`LEGACY_STREAM_DIR` to ``<run_dir>/stream``."""
    target = Path(run_dir) / "stream"
    shutil.copytree(LEGACY_STREAM_DIR, target)
    return target


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
    builder = ReferenceBuilder()
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
