"""Determinism audit: every app trace generator is a pure function of
its seed, down to the serialized bytes.

The result-integrity layer leans on this everywhere — the fuzzer's
baseline, the differential corpus, and checkpoint resume all assume a
regenerated trace is *identical*, not merely statistically similar.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mem.tracefile import save_trace

from tests.harness.corpus import CORPUS


def trace_bytes(trace, tmp_path, name):
    """Canonical serialized form (checksummed .npz) of a trace."""
    path = tmp_path / name
    save_trace(path, trace, metadata={"seed": 0})
    return path.read_bytes()


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_same_seed_regenerates_identical_bytes(entry, tmp_path):
    first = trace_bytes(entry.build(), tmp_path, "first.npz")
    second = trace_bytes(entry.build(), tmp_path, "second.npz")
    assert first == second


class TestSeedSensitivity:
    """Seeds must actually steer the seeded generators (the dense
    kernels — LU, CG, FFT — trace fixed data layouts, so their access
    streams are legitimately seed-independent; the seed feeds their
    self-check data instead)."""

    def test_barnes_hut_seed_changes_trace(self):
        from repro.apps.barnes_hut.trace import BarnesHutTraceGenerator

        a = BarnesHutTraceGenerator.from_plummer(
            24, seed=0, num_processors=4
        ).trace_for_processor(0)
        b = BarnesHutTraceGenerator.from_plummer(
            24, seed=1, num_processors=4
        ).trace_for_processor(0)
        assert not np.array_equal(a.addrs, b.addrs)

    def test_volrend_seed_changes_volume(self):
        # The volrend seed textures the phantom's interior; the shell
        # dominates ray termination, so the access *stream* can be
        # identical across seeds — the data it reads must not be.
        from repro.apps.volrend.volume import synthetic_head

        a = synthetic_head(16, seed=0).opacities
        b = synthetic_head(16, seed=1).opacities
        assert not np.array_equal(a, b)


class TestSeedAttribute:
    """Every generator records the seed it was built with, so artifact
    metadata can carry it."""

    def test_all_generators_expose_seed(self):
        from repro.apps.barnes_hut.trace import BarnesHutTraceGenerator
        from repro.apps.cg.trace import CGTraceGenerator
        from repro.apps.fft.trace import FFTTraceGenerator
        from repro.apps.lu.trace import LUTraceGenerator
        from repro.apps.volrend.trace import VolrendTraceGenerator

        assert LUTraceGenerator(16, 4, 4, seed=3).seed == 3
        assert CGTraceGenerator(8, 4, seed=4).seed == 4
        assert FFTTraceGenerator(64, 2, seed=5).seed == 5
        assert (
            BarnesHutTraceGenerator.from_plummer(
                24, seed=6, num_processors=4
            ).seed
            == 6
        )
        assert (
            VolrendTraceGenerator.from_synthetic_head(
                8, seed=7, num_processors=4
            ).seed
            == 7
        )
