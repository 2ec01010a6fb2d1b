"""Process-local metrics: counters, gauges, fixed-bucket histograms.

Design constraints, in order:

1. **Hot-loop safety.**  The cache/setassoc/stack-distance inner loops
   execute one Python iteration per memory reference; anything we add
   there is multiplied by hundreds of millions.  This module adds
   nothing per iteration: a loop takes a :class:`LoopSampler` before it
   starts and all accounting happens in :meth:`LoopSampler.finish`,
   once per loop.
2. **Off by default.**  ``obs_enabled()`` is ``False`` until the
   campaign CLI (or a test) turns it on, so library users and the
   uninstrumented benchmarks pay nothing.  ``--no-obs`` keeps it off;
   a forked worker follows the ``obs`` flag of its attempt spec.
3. **No dependencies.**  Snapshots are plain dicts.

Metric names are dotted lowercase (``runtime.journal.fsync_seconds``).
Histograms use fixed bucket boundaries chosen at creation; merging two
histograms with different boundaries is an error, which keeps worker →
supervisor rollups honest.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

METRICS_FILENAME = "metrics.json"
METRICS_FORMAT = 1

#: Latency buckets (seconds) for fsync/checkpoint style
#: metrics: 10us .. 10s, decade-ish spacing.
LATENCY_BUCKETS_S = (
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    0.1,
    1.0,
    10.0,
)

#: Throughput buckets (refs/second) for the simulation hot loops.
THROUGHPUT_BUCKETS = (
    1e3,
    3e3,
    1e4,
    3e4,
    1e5,
    3e5,
    1e6,
    3e6,
    1e7,
    3e7,
    1e8,
)


class Counter:
    """Monotonically increasing integer-ish counter."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-boundary histogram.

    ``counts[i]`` counts observations ``<= buckets[i]``; the final slot
    counts overflows (+Inf bucket).
    """

    __slots__ = ("name", "buckets", "counts", "total", "count", "_lock")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        if not buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        ordered = tuple(float(b) for b in buckets)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"histogram {name} buckets must strictly increase")
        self.name = name
        self.buckets = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self.counts[idx] += 1
            self.total += value
            self.count += 1

    def merge(self, snap: Dict[str, object]) -> None:
        buckets = tuple(float(b) for b in snap["buckets"])  # type: ignore[index]
        if buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name}: cannot merge boundaries "
                f"{list(buckets)} into {list(self.buckets)}"
            )
        counts: List[int] = list(snap["counts"])  # type: ignore[arg-type]
        if len(counts) != len(self.counts):
            raise ValueError(f"histogram {self.name}: count arity mismatch")
        with self._lock:
            for i, c in enumerate(counts):
                self.counts[i] += int(c)
            self.total += float(snap.get("sum", 0.0))  # type: ignore[arg-type]
            self.count += int(snap.get("count", 0))  # type: ignore[arg-type]


class MetricsRegistry:
    """Thread-safe name → instrument map with snapshot/merge/export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (create on first use) --------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(
        self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS_S
    ) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name, buckets)
            return inst

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict snapshot, JSON-serializable, mergeable."""
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            gauges = {n: g.value for n, g in self._gauges.items()}
            histograms = {
                n: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for n, h in self._histograms.items()
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge_snapshot(self, snap: Dict[str, object]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram bucket counts add; gauges last-write-win.
        Used to roll worker-process metrics up into the supervisor's
        campaign-level registry.
        """
        for name, value in dict(snap.get("counters", {})).items():  # type: ignore[arg-type]
            self.counter(name).inc(value)
        for name, value in dict(snap.get("gauges", {})).items():  # type: ignore[arg-type]
            self.gauge(name).set(value)
        for name, hsnap in dict(snap.get("histograms", {})).items():  # type: ignore[arg-type]
            self.histogram(name, hsnap["buckets"]).merge(hsnap)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# -- global registry and the enable gate --------------------------------

_registry = MetricsRegistry()
_enabled = False


def get_registry() -> MetricsRegistry:
    return _registry


def obs_enabled() -> bool:
    """Is metrics collection on for this process?"""
    return _enabled


def set_obs_enabled(enabled: bool) -> None:
    global _enabled
    _enabled = bool(enabled)


# -- cheap module-level recording helpers ------------------------------
# Each is a single enabled-check away from a no-op so call sites stay
# one line and cold paths stay cold.


def inc(name: str, amount: float = 1) -> None:
    if obs_enabled():
        _registry.counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    if obs_enabled():
        _registry.gauge(name).set(value)


def observe(
    name: str, value: float, buckets: Sequence[float] = LATENCY_BUCKETS_S
) -> None:
    if obs_enabled():
        _registry.histogram(name, buckets).observe(value)


def timed(name: str) -> "_Timer":
    """``with metrics.timed("runtime.journal.fsync_seconds"): ...``"""
    return _Timer(name)


class _Timer:
    __slots__ = ("name", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.monotonic()
        return self

    def __exit__(self, *exc: object) -> None:
        observe(self.name, time.monotonic() - self._t0)


# -- hot-loop sampler ---------------------------------------------------


class LoopSampler:
    """Per-loop accumulator flushed to the registry once, at the end.

    Created via :func:`hot_loop_sampler`, which returns ``None`` when
    observability is off.  It starts the loop's clock; :meth:`finish`
    records the loop's totals and throughput.
    """

    __slots__ = ("name", "_t0", "_clock")

    def __init__(
        self,
        name: str,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.name = name
        self._clock = clock
        self._t0 = clock()

    def finish(self, refs: int, misses: int) -> None:
        elapsed = self._clock() - self._t0
        registry = _registry
        registry.counter(f"{self.name}.refs").inc(refs)
        registry.counter(f"{self.name}.misses").inc(misses)
        registry.counter(f"{self.name}.loops").inc()
        if elapsed > 0 and refs:
            rps = refs / elapsed
            registry.gauge(f"{self.name}.last_refs_per_second").set(rps)
            registry.histogram(
                f"{self.name}.refs_per_second", THROUGHPUT_BUCKETS
            ).observe(rps)


def hot_loop_sampler(name: str) -> Optional[LoopSampler]:
    """The only obs entry point the simulation hot loops call.

    Returns ``None`` when observability is disabled so the loops can
    gate their one :meth:`~LoopSampler.finish` behind
    ``sampler is not None``.
    """
    if not obs_enabled():
        return None
    return LoopSampler(name)
