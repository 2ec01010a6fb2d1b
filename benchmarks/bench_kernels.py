"""Vectorized simulation kernels vs their pure-Python oracles.

Three rows per kernel (``repro.mem.kernels``):

- ``*_oracle``: the pure-Python reference hot loop, tier pinned to
  ``oracle``;
- ``*_vector``: the columnar numpy kernel with shadow verification
  effectively off (one warmup verify, then a huge sampling period) —
  the raw kernel speed;
- ``*_vector_verified``: the numpy kernel at the *default* shadow
  sampling rate (every 32nd chunk replays through the oracle), the
  configuration campaigns actually run — the difference against
  ``*_vector`` is the verification overhead.

``compare_baseline.py`` gates these rows harder than the rest of the
suite: a kernel row regressing more than 10% against
``BENCH_baseline.json`` fails the comparison.
"""

import numpy as np
import pytest

from repro.mem import kernels
from repro.mem.cache import FullyAssociativeCache
from repro.mem.multiproc import MultiprocessorMemory
from repro.mem.setassoc import SetAssociativeCache
from repro.mem.stack_distance import profile_trace
from repro.mem.trace import Trace

#: Sampling period that never fires after the warmup call below.
_NEVER = 1 << 30


def _random_trace(num_refs=50_000, num_blocks=4096, seed=0):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, num_blocks, size=num_refs).astype(np.int64) * 8
    kinds = rng.integers(0, 2, size=num_refs).astype(np.uint8)
    return Trace(addrs, kinds)


@pytest.fixture(autouse=True)
def _fresh_kernels():
    """Isolate each row from quarantines and guard ordinals."""
    kernels.reset_kernel_state()
    yield
    kernels.reset_kernel_state()
    kernels.clear_kernels(clear_env=False)


def _bench_tier(benchmark, fn, refs, tier, verify_every=_NEVER):
    kernels.configure_kernels(
        tier=tier, verify_every=verify_every, min_refs=0, export_env=False
    )
    fn()  # warmup: the first guarded chunk always shadow-verifies
    benchmark(fn)
    benchmark.extra_info["refs"] = refs
    benchmark.extra_info["kernel_tier"] = tier
    benchmark.extra_info["verify_every"] = verify_every
    if benchmark.stats and benchmark.stats.stats.mean:
        benchmark.extra_info["refs_per_second"] = (
            refs / benchmark.stats.stats.mean
        )


def _fullassoc():
    trace = _random_trace()
    return lambda: FullyAssociativeCache(1024 * 8).run(trace), len(trace)


def _setassoc4():
    trace = _random_trace()
    return (
        lambda: SetAssociativeCache(1024 * 8, associativity=4).run(trace),
        len(trace),
    )


def _directmapped():
    trace = _random_trace()
    return (
        lambda: SetAssociativeCache(1024 * 8, associativity=1).run(trace),
        len(trace),
    )


def _stackdist():
    trace = _random_trace()
    return lambda: profile_trace(trace), len(trace)


def _multiproc():
    """Four processors, infinite caches, one 50K-ref interleaving."""
    traces = [_random_trace(12_500, seed=pid) for pid in range(4)]
    return lambda: MultiprocessorMemory(4).run_traces(traces), 50_000


def bench_kernel_fullassoc_oracle(benchmark):
    fn, refs = _fullassoc()
    _bench_tier(benchmark, fn, refs, "oracle")


def bench_kernel_fullassoc_vector(benchmark):
    fn, refs = _fullassoc()
    _bench_tier(benchmark, fn, refs, "vector")


def bench_kernel_fullassoc_vector_verified(benchmark):
    fn, refs = _fullassoc()
    _bench_tier(
        benchmark, fn, refs, "vector", verify_every=kernels.DEFAULT_VERIFY_EVERY
    )


def bench_kernel_setassoc4_oracle(benchmark):
    fn, refs = _setassoc4()
    _bench_tier(benchmark, fn, refs, "oracle")


def bench_kernel_setassoc4_vector(benchmark):
    fn, refs = _setassoc4()
    _bench_tier(benchmark, fn, refs, "vector")


def bench_kernel_setassoc4_vector_verified(benchmark):
    fn, refs = _setassoc4()
    _bench_tier(
        benchmark, fn, refs, "vector", verify_every=kernels.DEFAULT_VERIFY_EVERY
    )


def bench_kernel_directmapped_oracle(benchmark):
    fn, refs = _directmapped()
    _bench_tier(benchmark, fn, refs, "oracle")


def bench_kernel_directmapped_vector(benchmark):
    fn, refs = _directmapped()
    _bench_tier(benchmark, fn, refs, "vector")


def bench_kernel_directmapped_vector_verified(benchmark):
    fn, refs = _directmapped()
    _bench_tier(
        benchmark, fn, refs, "vector", verify_every=kernels.DEFAULT_VERIFY_EVERY
    )


def bench_kernel_stackdist_oracle(benchmark):
    fn, refs = _stackdist()
    _bench_tier(benchmark, fn, refs, "oracle")


def bench_kernel_stackdist_vector(benchmark):
    fn, refs = _stackdist()
    _bench_tier(benchmark, fn, refs, "vector")


def bench_kernel_stackdist_vector_verified(benchmark):
    fn, refs = _stackdist()
    _bench_tier(
        benchmark, fn, refs, "vector", verify_every=kernels.DEFAULT_VERIFY_EVERY
    )


def bench_kernel_multiproc_oracle(benchmark):
    fn, refs = _multiproc()
    _bench_tier(benchmark, fn, refs, "oracle")


def bench_kernel_multiproc_vector(benchmark):
    fn, refs = _multiproc()
    _bench_tier(benchmark, fn, refs, "vector")


def bench_kernel_multiproc_vector_verified(benchmark):
    fn, refs = _multiproc()
    _bench_tier(
        benchmark, fn, refs, "vector", verify_every=kernels.DEFAULT_VERIFY_EVERY
    )
