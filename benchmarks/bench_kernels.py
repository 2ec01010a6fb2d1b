"""The vectorized simulation kernels (``repro.mem.kernels``).

One ``*_vector`` row per kernel: the columnar numpy kernel, what
campaigns run (the fully associative cache runs on the ``stackdist``
kernel; its own row is ``bench_fully_associative_cache``).  The
coherence kernel also has ``bench_kernel_multiproc_oracle``, its
pure-Python loop held by ``tests.harness.loops.loops_only``: that loop
stays the engine for the machines the kernel does not take.  The
``stackdist`` and ``setassoc`` loops are test references only and are
not timed.

The random traces have almost no per-set runs, so
``bench_kernel_setassoc4_bh_vector`` adds a Barnes-Hut trace (the
reference stream of the Section 6.4 associativity study), where the
depth engine's run compression does most of its work.

``compare_baseline.py`` gates these rows harder than the rest of the
suite: a kernel row regressing more than 10% against
``BENCH_baseline.json`` fails the comparison.
"""

import numpy as np

from repro.mem.multiproc import MultiprocessorMemory
from repro.mem.setassoc import SetAssociativeCache
from repro.mem.stack_distance import profile_trace
from repro.mem.trace import Trace
from tests.harness.loops import loops_only

def _random_trace(num_refs=50_000, num_blocks=4096, seed=0):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, num_blocks, size=num_refs).astype(np.int64) * 8
    kinds = rng.integers(0, 2, size=num_refs).astype(np.uint8)
    return Trace(addrs, kinds)


def _bench_tier(benchmark, fn, refs, tier):
    with loops_only(tier == "oracle"):
        fn()  # warmup
        benchmark(fn)
    benchmark.extra_info["refs"] = refs
    benchmark.extra_info["kernel_tier"] = tier
    if benchmark.stats and benchmark.stats.stats.mean:
        benchmark.extra_info["refs_per_second"] = (
            refs / benchmark.stats.stats.mean
        )


def _setassoc4():
    trace = _random_trace()
    return (
        lambda: SetAssociativeCache(1024 * 8, associativity=4).run(trace),
        len(trace),
    )


def _setassoc4_barnes_hut():
    """A Barnes-Hut n=256 processor trace into a 4-way 4 KB cache."""
    from repro.apps.barnes_hut.bodies import plummer_model
    from repro.apps.barnes_hut.trace import BarnesHutTraceGenerator

    gen = BarnesHutTraceGenerator(
        plummer_model(256, seed=3), theta=1.0, num_processors=4
    )
    trace = gen.trace_for_processor(0)
    return (
        lambda: SetAssociativeCache(4096, associativity=4).run(trace),
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


def bench_kernel_setassoc4_vector(benchmark):
    fn, refs = _setassoc4()
    _bench_tier(benchmark, fn, refs, "vector")


def bench_kernel_setassoc4_bh_vector(benchmark):
    fn, refs = _setassoc4_barnes_hut()
    _bench_tier(benchmark, fn, refs, "vector")


def bench_kernel_directmapped_vector(benchmark):
    fn, refs = _directmapped()
    _bench_tier(benchmark, fn, refs, "vector")


def bench_kernel_stackdist_vector(benchmark):
    fn, refs = _stackdist()
    _bench_tier(benchmark, fn, refs, "vector")


def bench_kernel_multiproc_oracle(benchmark):
    fn, refs = _multiproc()
    _bench_tier(benchmark, fn, refs, "oracle")


def bench_kernel_multiproc_vector(benchmark):
    fn, refs = _multiproc()
    _bench_tier(benchmark, fn, refs, "vector")

