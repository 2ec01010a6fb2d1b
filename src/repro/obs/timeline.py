"""Temporal working-set telemetry: per-chunk timeline rows and phases.

The paper reads its lev1WS/lev2WS knees off *end-of-run* miss-rate
curves, but working sets are by definition windowed over time and
phase-dependent (Barnes-Hut's tree-build/force phases, LU's shrinking
active matrix).  This module adds the time axis:

- :class:`TimelineRecorder` appends ``TLN1`` rows to
  ``timeline.jsonl`` (the shared CRC frame and damage rule of
  :mod:`repro.runtime.records`): refs/s, per-capacity miss deltas,
  stack-depth percentiles, and a Denning working-set estimate (unique
  blocks touched in the window).  The explicit caches write one row
  per simulated chunk.  The stack-distance profiler feeds an in-memory
  trace once and derives a row per window of :func:`window_refs`
  references from the per-reference depths, written as one
  :meth:`~TimelineRecorder.record_many` batch.  A ``stackdist`` row's
  ``misses`` vector indexes :data:`STACKDIST_LADDER` slot for slot.
  The recorder only appends: it derives nothing from its rows.
- :class:`PhaseDetector` segments a row stream into phases (robust
  median/MAD change-point test on ``log2(ws_blocks)`` with two-row
  hysteresis) and re-estimates the knees *per phase* from the
  accumulated per-phase miss vectors.  It runs where rows are read:
  :func:`load_working_set` (``status``) and :func:`detect_phases`
  (``report``).

Recording is ambient, like the campaign budget:
:func:`configure_timeline` installs a process-wide recorder; a forked
worker installs its own on the path its attempt spec carries.
:func:`active_recorder` returns ``None`` whenever observability is off.

Everything here is observability: a write failure (fault site
``"timeline"``) increments ``obs.timeline.write_errors`` and is
otherwise swallowed; readers skip torn tails and damaged lines.
Strict checking lives in ``repro.validate`` (codes ``timeline-torn`` /
``timeline-schema``).
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.runtime import records

#: Frame magic for ``timeline.jsonl`` rows.
TIMELINE_MAGIC = "TLN1"

#: Canonical artifact name inside a run directory.
TIMELINE_FILENAME = "timeline.jsonl"

#: Row format version stamped into every row.  Version 1 rows carried
#: their capacity ladder as ``cache_sizes``; version 2 rows index
#: :data:`STACKDIST_LADDER` instead.
TIMELINE_VERSION = 2

#: The capacities (bytes) a version-2 ``stackdist`` row's ``misses``
#: vector indexes, slot for slot: 64 B to 8 MiB at four points per
#: octave, the paper's log-scale cache-size axis.  Changing it means
#: bumping :data:`TIMELINE_VERSION`.
STACKDIST_LADDER: Tuple[int, ...] = tuple(
    round(64 * 2 ** (i / 4)) for i in range(69)
)

#: Row granularity of an in-memory profile: ~64 windows per trace,
#: each at least ``CHUNK_MIN_REFS`` references (so a short trace is not
#: split into noise) and at most ``CHUNK_MAX_REFS`` (so a long one keeps
#: its time resolution).  The trace is still fed in one pass; these
#: bounds set only how its references are grouped into rows.
CHUNK_TARGET_WINDOWS = 64
CHUNK_MIN_REFS = 4096
CHUNK_MAX_REFS = 262144

#: Phase detection: a row is an outlier beyond ``PHASE_K`` robust
#: sigmas (floored at ``PHASE_ABS_FLOOR`` octaves) of the current
#: phase's median, tested once the phase has ``PHASE_MIN_ROWS`` rows;
#: ``PHASE_HYSTERESIS`` consecutive outliers open a new phase.
PHASE_K = 3.5
PHASE_ABS_FLOOR = 0.5
PHASE_MIN_ROWS = 3
PHASE_HYSTERESIS = 2

_MAD_SCALE = 1.4826  # MAD -> sigma for normal data


def read_timeline(path: Union[str, Path]) -> List[Dict[str, object]]:
    """All intact rows of a timeline file (damage is skipped)."""
    return records.scan(path, TIMELINE_MAGIC).records


def row_ladder(row: Dict[str, object]) -> Optional[Sequence[object]]:
    """The capacities a row's ``misses`` vector indexes: the row's own
    ``cache_sizes`` (version 1) or :data:`STACKDIST_LADDER`; ``None``
    when ``cache_sizes`` is not a list."""
    sizes = row.get("cache_sizes", STACKDIST_LADDER)
    return sizes if isinstance(sizes, (list, tuple)) else None


def window_refs(total_refs: int) -> int:
    """Refs per row (window) of an in-memory profile of ``total_refs``
    references."""
    target = total_refs // CHUNK_TARGET_WINDOWS
    return max(CHUNK_MIN_REFS, min(CHUNK_MAX_REFS, target))


# -- phase detection --------------------------------------------------------


def _median(values: Sequence[float]) -> float:
    # np.median's value, without an array per call: the detector takes
    # two medians per row.
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (float(ordered[mid - 1]) + float(ordered[mid])) / 2


@dataclass
class Phase:
    """One detected phase: a run of chunks with a stable working set."""

    index: int  # 1-based
    rows: int = 0
    refs: int = 0
    counted: int = 0
    cold: int = 0
    block_size: int = 0
    start_wall: Optional[float] = None
    end_wall: Optional[float] = None
    signal: List[float] = field(default_factory=list)
    ws_blocks: List[int] = field(default_factory=list)
    cache_sizes: Optional[List[int]] = None
    misses: Optional[np.ndarray] = None

    def ws_bytes(self) -> Optional[int]:
        """Median Denning working-set estimate over the phase, bytes."""
        if not self.ws_blocks or not self.block_size:
            return None
        return int(_median(self.ws_blocks)) * int(self.block_size)

    def miss_rate_curve(self):
        """Accumulated per-phase miss-rate curve, or ``None``."""
        from repro.core.curves import MissRateCurve

        if self.cache_sizes is None or self.misses is None or not self.counted:
            return None
        rates = self.misses.astype(np.float64) / float(self.counted)
        return MissRateCurve(
            capacities=np.asarray(self.cache_sizes, dtype=np.int64),
            miss_rates=rates,
            label=f"phase {self.index}",
        )

    def knees(self, rel_threshold: float = 0.25) -> list:
        """Knees of the per-phase miss-rate curve (may be empty)."""
        from repro.core.knee import find_knees

        curve = self.miss_rate_curve()
        if curve is None:
            return []
        return find_knees(curve, rel_threshold=rel_threshold)

    def absorb(self, row: Dict[str, object]) -> None:
        ws = row.get("ws_blocks")
        if not isinstance(ws, int):
            return
        self.rows += 1
        self.signal.append(math.log2(ws + 1))
        self.ws_blocks.append(ws)
        block_size = row.get("block_size")
        if isinstance(block_size, int) and block_size > 0:
            self.block_size = block_size
        refs = row.get("refs")
        if isinstance(refs, (int, float)):
            self.refs += int(refs)
        counted = row.get("counted")
        if isinstance(counted, (int, float)):
            self.counted += int(counted)
        cold = row.get("cold")
        if isinstance(cold, (int, float)):
            self.cold += int(cold)
        wall = row.get("t_wall")
        if isinstance(wall, (int, float)):
            if self.start_wall is None:
                self.start_wall = float(wall)
            self.end_wall = float(wall)
        sizes = row_ladder(row)
        misses = row.get("misses")
        if sizes and isinstance(misses, list) and len(sizes) == len(misses):
            if self.cache_sizes is None:
                self.cache_sizes = [int(c) for c in sizes]
                self.misses = np.zeros(len(sizes), dtype=np.int64)
            if self.cache_sizes == [int(c) for c in sizes]:
                self.misses = self.misses + np.asarray(misses, dtype=np.int64)

    def to_dict(self) -> Dict[str, object]:
        knees = self.knees()
        return {
            "index": self.index,
            "rows": self.rows,
            "refs": self.refs,
            "counted": self.counted,
            "cold": self.cold,
            "ws_bytes": self.ws_bytes(),
            "start_wall": self.start_wall,
            "end_wall": self.end_wall,
            "knee_bytes": [int(k.capacity_bytes) for k in knees],
            "miss_rate": (
                float(self.misses[-1]) / float(self.counted)
                if self.misses is not None and len(self.misses) and self.counted
                else None
            ),
        }


class PhaseDetector:
    """Change-point detector over the working-set signal.

    The signal is ``log2(ws_blocks + 1)`` per chunk: working sets move
    in octaves, so a phase change is a sustained shift of the log
    signal.  A row is an outlier when it sits more than
    ``PHASE_K * 1.4826 * MAD`` (floored at ``PHASE_ABS_FLOOR`` octaves)
    from the current phase's median; ``PHASE_HYSTERESIS`` consecutive
    outliers open a new phase seeded with those rows, a lone outlier is
    absorbed as a blip.  Fed one :meth:`update` per row, in order.
    """

    def __init__(self) -> None:
        self.phases: List[Phase] = []
        self._pending: List[Dict[str, object]] = []

    @property
    def current(self) -> Optional[Phase]:
        return self.phases[-1] if self.phases else None

    def _outlier(self, phase: Phase, value: float) -> bool:
        med = _median(phase.signal)
        mad = _median([abs(s - med) for s in phase.signal])
        threshold = max(PHASE_K * _MAD_SCALE * mad, PHASE_ABS_FLOOR)
        return abs(value - med) > threshold

    def update(self, row: Dict[str, object]) -> None:
        """Feed one row."""
        ws = row.get("ws_blocks")
        if not isinstance(ws, int) or ws < 0:
            return
        if not self.phases:
            phase = Phase(index=1)
            phase.absorb(row)
            self.phases.append(phase)
            return
        phase = self.phases[-1]
        value = math.log2(ws + 1)
        if len(phase.signal) >= PHASE_MIN_ROWS and self._outlier(phase, value):
            self._pending.append(row)
            if len(self._pending) < PHASE_HYSTERESIS:
                return
            fresh = Phase(index=len(self.phases) + 1)
            for pending in self._pending:
                fresh.absorb(pending)
            self._pending = []
            self.phases.append(fresh)
            return
        # Not an outlier: the pending rows were a blip, fold them in.
        for pending in self._pending:
            phase.absorb(pending)
        self._pending = []
        phase.absorb(row)

    def summary(self) -> Dict[str, object]:
        current = self.current
        knee_bytes: Optional[int] = None
        if current is not None:
            knees = current.knees()
            if knees:
                knee_bytes = int(knees[0].capacity_bytes)
        return {
            "phases": len(self.phases),
            "phase": current.index if current is not None else 0,
            "ws_bytes": current.ws_bytes() if current is not None else None,
            "knee_bytes": knee_bytes,
        }


def detect_phases(rows: Sequence[Dict[str, object]]) -> List[Phase]:
    """Phase segmentation of timeline rows (in given order)."""
    detector = PhaseDetector()
    for row in rows:
        detector.update(row)
    return detector.phases


def latest_attempt_rows(
    rows: Sequence[Dict[str, object]],
    experiment_id: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Rows of the most recent attempt (optionally for one experiment).

    Rows are grouped by ``attempt_uid`` (falling back to ``pid`` for
    rows written outside a campaign); the group containing the newest
    ``t_wall`` wins.  Within the group the append order is preserved.
    """
    groups: Dict[object, List[Dict[str, object]]] = {}
    for row in rows:
        if experiment_id is not None and row.get("experiment_id") != experiment_id:
            continue
        key = row.get("attempt_uid") or ("pid", row.get("pid"))
        groups.setdefault(key, []).append(row)
    if not groups:
        return []

    def newest(group: List[Dict[str, object]]) -> float:
        walls = [
            float(r["t_wall"])
            for r in group
            if isinstance(r.get("t_wall"), (int, float))
        ]
        return max(walls) if walls else 0.0

    return max(groups.values(), key=newest)


# -- recorder ---------------------------------------------------------------


class TimelineRecorder:
    """Append-only timeline writer.

    Rows go through a :class:`~repro.runtime.records.RecordLog`, opened
    at the first row, which keeps them whole across concurrently
    appending worker processes.  Recording never raises: write failures
    increment ``obs.timeline.write_errors`` and drop the row.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._log: Optional[records.RecordLog] = None
        self._lock = threading.Lock()
        self._seq = 0
        self._labels: Dict[str, str] = {}

    # -- labels (campaign context) -------------------------------------

    def set_labels(
        self,
        experiment_id: Optional[str] = None,
        attempt_uid: Optional[str] = None,
    ) -> None:
        """Attach campaign context to subsequent rows."""
        with self._lock:
            self._labels = {}
            if experiment_id:
                self._labels["experiment_id"] = experiment_id
            if attempt_uid:
                self._labels["attempt_uid"] = attempt_uid

    def clear_labels(self) -> None:
        with self._lock:
            self._labels = {}

    # -- recording ------------------------------------------------------

    def record(self, kind: str, **fields: object) -> Optional[Dict[str, object]]:
        """Append one row; returns the row, or ``None`` when dropped."""
        with self._lock:
            return self._append(kind, fields)

    def record_many(
        self, kind: str, rows: Sequence[Dict[str, object]]
    ) -> int:
        """Append ``rows`` in order under one lock; returns how many
        were written."""
        with self._lock:
            return sum(self._append(kind, fields) is not None for fields in rows)

    def _append(
        self, kind: str, fields: Dict[str, object]
    ) -> Optional[Dict[str, object]]:
        """Frame and append one row (the caller holds the lock);
        ``None`` when the write failed."""
        row: Dict[str, object] = {
            "v": TIMELINE_VERSION,
            "kind": kind,
            "seq": self._seq,
            "pid": os.getpid(),
            "t_wall": time.time(),
        }
        row.update(self._labels)
        row.update({k: v for k, v in fields.items() if v is not None})
        try:
            if self._log is None:
                self._log = records.RecordLog(self.path, TIMELINE_MAGIC, "timeline")
            self._log.append(row)
        except (OSError, ValueError):
            obs_metrics.inc("obs.timeline.write_errors")
            return None
        self._seq += 1
        obs_metrics.inc("obs.timeline.rows")
        return row

    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None


# -- ambient configuration --------------------------------------------------

_recorder: Optional[TimelineRecorder] = None


def configure_timeline(
    path: Optional[Union[str, Path]],
) -> Optional[TimelineRecorder]:
    """Install (or clear, with ``None``) the process-wide recorder."""
    global _recorder
    if _recorder is not None:
        _recorder.close()
    _recorder = TimelineRecorder(path) if path is not None else None
    return _recorder


def active_recorder() -> Optional[TimelineRecorder]:
    """The recorder, or ``None`` when observability is off."""
    if _recorder is None or not obs_metrics.obs_enabled():
        return None
    return _recorder


def set_labels(
    experiment_id: Optional[str] = None,
    attempt_uid: Optional[str] = None,
) -> None:
    if _recorder is not None:
        _recorder.set_labels(
            experiment_id=experiment_id, attempt_uid=attempt_uid
        )


def clear_labels() -> None:
    if _recorder is not None:
        _recorder.clear_labels()


def record_cache_chunk(
    recorder: TimelineRecorder,
    kind: str,
    trace,
    *,
    block_size: int,
    capacity_bytes: int,
    refs: int,
    counted: int,
    cold: int,
    misses_total: int,
    elapsed: float,
    ws_blocks: Optional[int] = None,
) -> None:
    """One timeline row for an explicit-cache chunk (never raises).

    Shared by the fully associative and set-associative simulators:
    they simulate a single capacity, so the row carries the scalar
    miss delta plus the Denning working-set estimate of the window
    (``ws_blocks``, the trace footprint, computed here unless a sweep
    passes the one it already has).
    """
    try:
        if refs <= 0:
            return
        if ws_blocks is None:
            ws_blocks = trace.footprint(block_size)
        recorder.record(
            kind,
            refs=int(refs),
            counted=int(counted),
            cold=int(cold),
            misses_total=int(misses_total),
            elapsed_s=round(elapsed, 9),
            refs_per_second=(refs / elapsed) if elapsed > 0 else None,
            block_size=int(block_size),
            capacity_bytes=int(capacity_bytes),
            ws_blocks=int(ws_blocks),
        )
    except Exception:
        obs_metrics.inc("obs.timeline.write_errors")


# -- status/report helpers --------------------------------------------------


def load_working_set(
    run_dir: Union[str, Path], tail_bytes: int = 1 << 19
) -> Optional[Dict[str, object]]:
    """Live working-set summary from the tail of ``timeline.jsonl``.

    Reads only the last ``tail_bytes`` of the file (status must stay
    cheap against a multi-gigabyte timeline), segments the
    newest attempt's rows, and returns ``{experiment_id, phase,
    phases, ws_bytes, knee_bytes, rows}`` — or ``None`` when there is
    no usable timeline.
    """
    path = Path(run_dir) / TIMELINE_FILENAME
    try:
        size = path.stat().st_size
        with open(path, "rb") as handle:
            if size > tail_bytes:
                handle.seek(size - tail_bytes)
                handle.readline()  # drop the partial first line
            raw = handle.read()
    except OSError:
        return None
    rows: List[Dict[str, object]] = []
    for line in raw.splitlines(keepends=True):
        try:
            rows.append(records.decode(line, TIMELINE_MAGIC))
        except ValueError:
            continue
    rows = latest_attempt_rows(rows)
    if not rows:
        return None
    detector = PhaseDetector()
    for row in rows:
        detector.update(row)
    if not detector.phases:
        return None
    summary = detector.summary()
    summary["rows"] = len(rows)
    summary["experiment_id"] = rows[-1].get("experiment_id")
    summary["attempt_uid"] = rows[-1].get("attempt_uid")
    return summary
