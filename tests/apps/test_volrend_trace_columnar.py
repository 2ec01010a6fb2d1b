"""The columnar volume-rendering trace generator against the
per-reference oracle in :mod:`tests.apps.volrend_trace_oracle`:
byte-identical traces and equal ray and sample counts for every
processor, in memory and streamed."""

import pytest

from repro.apps.volrend.trace import SCRATCH_DOUBLEWORDS, VolrendTraceGenerator
from repro.apps.volrend.volume import synthetic_head
from tests.apps import volrend_trace_oracle
from tests.apps.trace_parity import assert_same_manifest, assert_same_trace, streaming


@pytest.fixture(scope="module")
def generator():
    return VolrendTraceGenerator(
        synthetic_head(16, seed=4), num_processors=4, image_size=16
    )


def _check(gen, pid, same, **frames):
    got = gen.trace_for_processor(pid, **frames)
    want, rays, samples = volrend_trace_oracle.trace(gen, pid, **frames)
    same(got, want)
    assert (gen.rays_cast, gen.samples) == (rays, samples)


def test_two_frames_match_oracle_for_every_pid(generator):
    for pid in range(generator.num_processors):
        _check(generator, pid, assert_same_trace, frames=2)


def test_coarser_steps_on_a_larger_image_match_oracle():
    gen = VolrendTraceGenerator(
        synthetic_head(12, seed=1), num_processors=1, image_size=20, step=1.5
    )
    _check(gen, 0, assert_same_trace, angle_start=0.0)


def test_block_whose_rays_miss_the_volume():
    # 8x8 blocks: the corner block's rays pass below the volume.
    gen = VolrendTraceGenerator(synthetic_head(16), num_processors=64, image_size=16)
    trace = gen.trace_for_processor(0)
    assert gen.samples == 0 and gen.rays_cast == 4
    assert len(trace) == gen.rays_cast * (SCRATCH_DOUBLEWORDS + 1)  # init + pixel
    for pid in range(gen.num_processors):
        _check(gen, pid, assert_same_trace)


def test_streamed_shards_identical(generator, tmp_path):
    with streaming(tmp_path):
        for pid in range(generator.num_processors):
            _check(generator, pid, assert_same_manifest, frames=2)
