"""Process-local counters, rolled up into ``<run_dir>/metrics.json``.

Every number the paper reports is a count (references, misses, FLOPs),
and so is everything this module keeps: a counter per dotted lowercase
name (``mem.stackdist.refs``, ``runtime.journal.appends``).  Time is
not kept here; a duration is a span (:mod:`repro.obs.tracing`).

Design constraints:

1. **Off by default.**  ``obs_enabled()`` is ``False`` until the
   campaign CLI (or a test) turns it on, so library users and the
   uninstrumented benchmarks pay nothing.  ``--no-obs`` keeps it off;
   a forked worker follows the ``obs`` flag of its attempt spec.
2. **Cold call sites.**  Simulators count once per kernel chunk
   (:func:`repro.mem.kernels.guard_run`), never per reference.
3. **No dependencies.**  Snapshots are plain dicts; a worker's snapshot
   merges into the supervisor's registry by adding counters.
"""

from __future__ import annotations

import threading
from typing import Dict

METRICS_FILENAME = "metrics.json"
METRICS_FORMAT = 1


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


class MetricsRegistry:
    """Thread-safe name → counter map with snapshot/merge."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict snapshot, JSON-serializable, mergeable."""
        with self._lock:
            return {"counters": {n: c.value for n, c in self._counters.items()}}

    def merge_snapshot(self, snap: Dict[str, object]) -> None:
        """Fold another registry's snapshot into this one (counters add).

        Used to roll worker-process metrics up into the supervisor's
        campaign-level registry.
        """
        for name, value in dict(snap.get("counters", {})).items():  # type: ignore[arg-type]
            self.counter(name).inc(value)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()


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


def inc(name: str, amount: float = 1) -> None:
    """Add ``amount`` to counter ``name``; a no-op while obs is off."""
    if obs_enabled():
        _registry.counter(name).inc(amount)
