"""Process-local metrics: counters, gauges, fixed-bucket histograms.

Design constraints, in order:

1. **Hot-loop safety.**  The cache/setassoc/stack-distance inner loops
   execute one Python iteration per memory reference; anything we add
   there is multiplied by hundreds of millions.  The only per-iteration
   cost this module imposes is a single ``sampler is not None`` test
   inside the *already existing* masked budget branch (taken once every
   :data:`~repro.runtime.budget.CHECK_INTERVAL` references).  All real
   accounting happens in :meth:`LoopSampler.finish`, once per loop.
2. **Off by default.**  ``obs_enabled()`` is ``False`` until the
   campaign CLI (or a test) turns it on, so library users and the
   uninstrumented benchmarks pay nothing.  ``REPRO_OBS=1`` force-enables
   and ``REPRO_OBS=0`` force-disables, overriding the CLI either way.
3. **No dependencies.**  Snapshots are plain dicts; the Prometheus
   text exposition is hand-rolled (the format is three line shapes).

Metric names are dotted lowercase (``runtime.journal.fsync_seconds``);
the Prometheus renderer mangles them to legal identifiers.  Histograms
use fixed bucket boundaries chosen at creation; merging two histograms
with different boundaries is an error, which keeps worker → supervisor
rollups honest.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

OBS_ENV = "REPRO_OBS"
SAMPLE_ENV = "REPRO_OBS_SAMPLE"
METRICS_FILENAME = "metrics.json"
METRICS_FORMAT = 1

#: Default hot-loop sampling stride (references between sampler ticks).
#: Must be a multiple of the budget CHECK_INTERVAL so ticks land on the
#: masked branch; enforced by LoopSampler.
DEFAULT_SAMPLE_INTERVAL = 8192

#: Latency buckets (seconds) for fsync/checkpoint/heartbeat style
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
    """Fixed-boundary histogram (cumulative counts come out at render).

    ``counts[i]`` counts observations ``<= buckets[i]``; the final slot
    counts overflows (+Inf bucket), Prometheus-style.
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

    def to_prometheus(self) -> str:
        return render_prometheus(self.snapshot())


def _prom_name(name: str) -> str:
    mangled = "".join(
        ch if (ch.isalnum() and ch.isascii()) or ch == "_" else "_" for ch in name
    )
    if not mangled or mangled[0].isdigit():
        mangled = "_" + mangled
    return "repro_" + mangled


def _prom_float(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """Render a registry snapshot in Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(dict(snapshot.get("counters", {}))):  # type: ignore[arg-type]
        value = snapshot["counters"][name]  # type: ignore[index]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_float(value)}")
    for name in sorted(dict(snapshot.get("gauges", {}))):  # type: ignore[arg-type]
        value = snapshot["gauges"][name]  # type: ignore[index]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_float(value)}")
    for name in sorted(dict(snapshot.get("histograms", {}))):  # type: ignore[arg-type]
        hsnap = snapshot["histograms"][name]  # type: ignore[index]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, count in zip(hsnap["buckets"], hsnap["counts"]):
            cumulative += count
            lines.append(
                f'{prom}_bucket{{le="{_prom_float(bound)}"}} {cumulative}'
            )
        cumulative += hsnap["counts"][-1]
        lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{prom}_sum {_prom_float(hsnap['sum'])}")
        lines.append(f"{prom}_count {hsnap['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- global registry and the enable gate --------------------------------

_registry = MetricsRegistry()
_enabled = False


def get_registry() -> MetricsRegistry:
    return _registry


def obs_enabled() -> bool:
    """Is metrics collection on for this process?

    The ``REPRO_OBS`` environment variable (when set to anything
    truthy/falsy) overrides the programmatic switch in both directions,
    so workers inherit the supervisor's decision and operators can kill
    instrumentation without touching flags.
    """
    env = os.environ.get(OBS_ENV)
    if env is not None and env != "":
        return env not in ("0", "false", "no", "off")
    return _enabled


def set_obs_enabled(enabled: bool) -> None:
    global _enabled
    _enabled = bool(enabled)


def sample_interval() -> int:
    """Hot-loop sampling stride, overridable via ``REPRO_OBS_SAMPLE``."""
    raw = os.environ.get(SAMPLE_ENV)
    if raw:
        try:
            value = int(raw)
        except ValueError:
            value = DEFAULT_SAMPLE_INTERVAL
        if value > 0:
            return value
    return DEFAULT_SAMPLE_INTERVAL


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
    observability is off — the loop then pays only an ``is not None``
    test on the masked branch.  :meth:`tick` is called every
    CHECK_INTERVAL references and counts a *sample* every
    ``sample_interval()`` references (a multiple of CHECK_INTERVAL, so
    plain stride arithmetic suffices); :meth:`finish` records totals.
    """

    __slots__ = ("name", "every", "samples", "last_i", "_t0", "_clock")

    def __init__(
        self,
        name: str,
        every: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.name = name
        stride = every if every is not None else sample_interval()
        # Round the stride up to a CHECK_INTERVAL multiple so ticks
        # (which only happen on the masked branch) can honor it exactly.
        from repro.runtime.budget import CHECK_INTERVAL

        if stride % CHECK_INTERVAL:
            stride = ((stride // CHECK_INTERVAL) + 1) * CHECK_INTERVAL
        self.every = stride
        self.samples = 0
        self.last_i = 0
        self._clock = clock
        self._t0 = clock()

    def tick(self, i: int) -> None:
        self.last_i = i
        if not i % self.every:
            self.samples += 1

    def finish(self, refs: int, misses: int) -> None:
        elapsed = self._clock() - self._t0
        registry = _registry
        registry.counter(f"{self.name}.refs").inc(refs)
        registry.counter(f"{self.name}.misses").inc(misses)
        registry.counter(f"{self.name}.loops").inc()
        registry.counter(f"{self.name}.samples").inc(self.samples)
        if elapsed > 0 and refs:
            rps = refs / elapsed
            registry.gauge(f"{self.name}.last_refs_per_second").set(rps)
            registry.histogram(
                f"{self.name}.refs_per_second", THROUGHPUT_BUCKETS
            ).observe(rps)


def hot_loop_sampler(name: str) -> Optional[LoopSampler]:
    """The only obs entry point the simulation hot loops call.

    Returns ``None`` when observability is disabled so the loops can
    gate everything behind ``sampler is not None``.
    """
    if not obs_enabled():
        return None
    return LoopSampler(name)
