"""Temporal working-set telemetry: per-chunk timeline rows and phases.

The paper reads its lev1WS/lev2WS knees off *end-of-run* miss-rate
curves, but working sets are by definition windowed over time and
phase-dependent (Barnes-Hut's tree-build/force phases, LU's shrinking
active matrix).  This module adds the time axis:

- :class:`TimelineRecorder` appends one CRC-framed JSON row per
  simulated chunk to ``timeline.jsonl`` (``TLN1 <crc32> <json>``, the
  same torn-tail discipline as the journal): refs/s, per-capacity miss
  deltas, stack-depth percentiles, and a Denning working-set estimate
  (unique blocks touched in the chunk window).
- :class:`PhaseDetector` segments the row stream into phases online
  (robust median/MAD change-point test on ``log2(ws_blocks)`` with
  two-row hysteresis) and re-estimates the knees *per phase* from the
  accumulated per-phase miss vectors.
- ``mem.ws.*`` gauges and ``obs.timeline.*`` counters surface the live
  phase/knee state through the ordinary metrics registry.

Recording is ambient, like the kernel and streaming configuration:
:func:`configure_timeline` installs a process-wide recorder and
exports ``REPRO_TIMELINE`` so spawned workers inherit it via
:func:`install_from_env`.  :func:`active_recorder` returns ``None``
whenever observability is off.

Everything here is observability: a write failure increments
``obs.timeline.write_errors`` and is otherwise swallowed; readers
tolerate torn tails and damaged lines.  Strict checking lives in
``repro.validate`` (codes ``timeline-torn`` / ``timeline-schema``).
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import metrics as obs_metrics

#: Frame magic for ``timeline.jsonl`` rows.
TIMELINE_MAGIC = "TLN1"

#: Canonical artifact name inside a run directory.
TIMELINE_FILENAME = "timeline.jsonl"

#: Row format version stamped into every row.
TIMELINE_VERSION = 1

#: Environment handoff to spawned workers (path to the timeline file).
TIMELINE_ENV = "REPRO_TIMELINE"

#: Optional chunk-size override (refs per in-memory timeline chunk).
TIMELINE_CHUNK_ENV = "REPRO_TIMELINE_CHUNK"

#: Row kinds emitted by the simulators.
ROW_KINDS = ("stackdist", "fullassoc", "setassoc")

#: In-memory chunking bounds: aim for ~64 windows per trace, but keep
#: every chunk above the kernels' ``MIN_REFS`` (2048) so chunked
#: feeding never demotes the vector tier, and below a cap that keeps
#: the per-row bookkeeping invisible next to the simulation itself.
CHUNK_TARGET_WINDOWS = 64
CHUNK_MIN_REFS = 4096
CHUNK_MAX_REFS = 262144

_MAD_SCALE = 1.4826  # MAD -> sigma for normal data


# -- framing ----------------------------------------------------------------


def _canonical(record: Dict[str, object]) -> bytes:
    return json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def frame_row(record: Dict[str, object], magic: str = TIMELINE_MAGIC) -> bytes:
    """One CRC-framed line: ``<magic> <crc32:08x> <canonical-json>\\n``."""
    data = _canonical(record)
    return f"{magic} {zlib.crc32(data):08x} ".encode("ascii") + data + b"\n"


def decode_frame(
    line: bytes, magic: str = TIMELINE_MAGIC
) -> Optional[Dict[str, object]]:
    """Decode one framed line; ``None`` on any damage."""
    parts = line.split(b" ", 2)
    if len(parts) != 3 or parts[0] != magic.encode("ascii"):
        return None
    try:
        expected = int(parts[1], 16)
    except ValueError:
        return None
    if zlib.crc32(parts[2]) != expected:
        return None
    try:
        record = json.loads(parts[2])
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


@dataclass
class TimelineScan:
    """Tolerant scan of a framed JSONL artifact.

    ``damaged`` holds 1-based line numbers that failed to decode before
    the tail; ``torn_tail`` marks damage at the very end of the file
    (the crash signature append-only writers are allowed to leave).
    """

    rows: List[Dict[str, object]] = field(default_factory=list)
    damaged: List[int] = field(default_factory=list)
    torn_tail: bool = False


def scan_framed(path: Union[str, Path], magic: str) -> TimelineScan:
    """Scan a CRC-framed JSONL file, tolerating any damage."""
    scan = TimelineScan()
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return scan
    if not raw:
        return scan
    lines = raw.split(b"\n")
    unterminated = lines[-1] != b""
    if lines[-1] == b"":
        lines.pop()
    bad: List[int] = []
    for number, line in enumerate(lines, start=1):
        record = decode_frame(line, magic)
        if record is None:
            bad.append(number)
        else:
            scan.rows.append(record)
    if bad and bad[-1] == len(lines) and unterminated:
        # An unterminated, undecodable final fragment is a torn tail,
        # not corruption: the writer died mid-append.
        scan.torn_tail = True
        bad.pop()
    scan.damaged = bad
    return scan


def scan_timeline(path: Union[str, Path]) -> TimelineScan:
    return scan_framed(path, TIMELINE_MAGIC)


def read_timeline(path: Union[str, Path]) -> List[Dict[str, object]]:
    """All decodable rows of a timeline file (tolerant)."""
    return scan_timeline(path).rows


def prepare_for_append(path: Union[str, Path]) -> None:
    """Truncate an undecodable tail so appends start on a clean line.

    Mirrors the event-log discipline: only the *trailing* damage is
    removed (a torn append from a killed process); decodable history is
    never rewritten.  Must only be called while no other process is
    appending (the CLI calls it once, before workers spawn).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return
    good = raw
    while good:
        newline = good.rfind(b"\n")
        if newline == len(good) - 1:
            start = good.rfind(b"\n", 0, newline) + 1
            if decode_frame(good[start:newline]) is not None:
                break
            good = good[:start]
        else:
            good = good[: newline + 1] if newline >= 0 else b""
    if len(good) != len(raw):
        with open(path, "wb") as handle:
            handle.write(good)


# -- phase detection --------------------------------------------------------


def _median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


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
        sizes = row.get("cache_sizes")
        misses = row.get("misses")
        if (
            isinstance(sizes, list)
            and isinstance(misses, list)
            and len(sizes) == len(misses)
            and sizes
        ):
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
    """Online change-point detector over the working-set signal.

    The signal is ``log2(ws_blocks + 1)`` per chunk: working sets move
    in octaves, so a phase change is a sustained shift of the log
    signal.  A row is an outlier when it sits more than
    ``k * 1.4826 * MAD`` (floored at ``abs_floor`` octaves) from the
    current phase's median; ``hysteresis`` consecutive outliers open a
    new phase seeded with those rows, a lone outlier is absorbed as a
    blip.  Works online (one :meth:`update` per row) and offline
    (:func:`detect_phases`).
    """

    def __init__(
        self,
        k: float = 3.5,
        abs_floor: float = 0.5,
        min_rows: int = 3,
        hysteresis: int = 2,
    ) -> None:
        self.k = k
        self.abs_floor = abs_floor
        self.min_rows = min_rows
        self.hysteresis = hysteresis
        self.phases: List[Phase] = []
        self._pending: List[Dict[str, object]] = []

    @property
    def current(self) -> Optional[Phase]:
        return self.phases[-1] if self.phases else None

    def _outlier(self, phase: Phase, value: float) -> bool:
        med = _median(phase.signal)
        mad = _median([abs(s - med) for s in phase.signal])
        threshold = max(self.k * _MAD_SCALE * mad, self.abs_floor)
        return abs(value - med) > threshold

    def update(self, row: Dict[str, object]) -> bool:
        """Feed one row; ``True`` when this row opened a new phase."""
        ws = row.get("ws_blocks")
        if not isinstance(ws, int) or ws < 0:
            return False
        if not self.phases:
            phase = Phase(index=1)
            phase.absorb(row)
            self.phases.append(phase)
            return True
        phase = self.phases[-1]
        value = math.log2(ws + 1)
        if len(phase.signal) >= self.min_rows and self._outlier(phase, value):
            self._pending.append(row)
            if len(self._pending) < self.hysteresis:
                return False
            fresh = Phase(index=len(self.phases) + 1)
            for pending in self._pending:
                fresh.absorb(pending)
            self._pending = []
            self.phases.append(fresh)
            return True
        # Not an outlier: the pending rows were a blip, fold them in.
        for pending in self._pending:
            phase.absorb(pending)
        self._pending = []
        phase.absorb(row)
        return False

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


def detect_phases(
    rows: Sequence[Dict[str, object]], **kwargs: float
) -> List[Phase]:
    """Offline phase segmentation of timeline rows (in given order)."""
    detector = PhaseDetector(**kwargs)
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
    """Append-only CRC-framed timeline writer with live phase gauges.

    One ``os.write`` per row on an ``O_APPEND`` descriptor keeps lines
    atomic across concurrently-appending worker processes.  Recording
    never raises: write failures increment
    ``obs.timeline.write_errors`` and drop the row.
    """

    def __init__(
        self,
        path: Union[str, Path],
        chunk_refs: Optional[int] = None,
    ) -> None:
        self.path = Path(path)
        self.chunk_refs = chunk_refs
        self._fd: Optional[int] = None
        self._lock = threading.Lock()
        self._seq = 0
        self._labels: Dict[str, str] = {}
        self._detector = PhaseDetector()

    # -- labels (campaign context) -------------------------------------

    def set_labels(
        self,
        experiment_id: Optional[str] = None,
        attempt_uid: Optional[str] = None,
    ) -> None:
        """Attach campaign context to subsequent rows; resets the
        per-attempt phase detector."""
        with self._lock:
            self._labels = {}
            if experiment_id:
                self._labels["experiment_id"] = experiment_id
            if attempt_uid:
                self._labels["attempt_uid"] = attempt_uid
            self._detector = PhaseDetector()

    def clear_labels(self) -> None:
        with self._lock:
            self._labels = {}
            self._detector = PhaseDetector()

    # -- chunking policy -----------------------------------------------

    def chunk_refs_for(self, total_refs: int) -> int:
        """Refs per in-memory timeline window for a trace of
        ``total_refs`` references."""
        if self.chunk_refs is not None and self.chunk_refs > 0:
            return int(self.chunk_refs)
        target = total_refs // CHUNK_TARGET_WINDOWS
        return max(CHUNK_MIN_REFS, min(CHUNK_MAX_REFS, target))

    # -- recording ------------------------------------------------------

    def record(self, kind: str, **fields: object) -> Optional[Dict[str, object]]:
        """Append one row; returns the row, or ``None`` when dropped."""
        with self._lock:
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
                if self._fd is None:
                    self._fd = os.open(
                        self.path,
                        os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                        0o644,
                    )
                os.write(self._fd, frame_row(row))
            except (OSError, ValueError):
                obs_metrics.inc("obs.timeline.write_errors")
                return None
            self._seq += 1
            obs_metrics.inc("obs.timeline.rows")
            if self._detector.update(row):
                obs_metrics.inc("obs.timeline.phase_starts")
            summary = self._detector.summary()
        obs_metrics.set_gauge("mem.ws.phase", float(summary["phase"]))
        obs_metrics.set_gauge("mem.ws.phases", float(summary["phases"]))
        if summary["ws_bytes"] is not None:
            obs_metrics.set_gauge(
                "mem.ws.estimate_bytes", float(summary["ws_bytes"])
            )
        if summary["knee_bytes"] is not None:
            obs_metrics.set_gauge(
                "mem.ws.knee_bytes", float(summary["knee_bytes"])
            )
        return row

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None


# -- ambient configuration --------------------------------------------------

_recorder: Optional[TimelineRecorder] = None


def configure_timeline(
    path: Optional[Union[str, Path]],
    chunk_refs: Optional[int] = None,
    prepare: bool = False,
) -> Optional[TimelineRecorder]:
    """Install (or clear, with ``None``) the process-wide recorder.

    Exports ``REPRO_TIMELINE`` / ``REPRO_TIMELINE_CHUNK`` so spawned
    workers can pick the same file up via :func:`install_from_env`.
    ``prepare=True`` truncates a torn tail first — only safe while no
    other process is appending.
    """
    global _recorder
    if _recorder is not None:
        _recorder.close()
    if path is None:
        _recorder = None
        os.environ.pop(TIMELINE_ENV, None)
        os.environ.pop(TIMELINE_CHUNK_ENV, None)
        return None
    if prepare:
        prepare_for_append(path)
    _recorder = TimelineRecorder(path, chunk_refs=chunk_refs)
    os.environ[TIMELINE_ENV] = str(path)
    if chunk_refs:
        os.environ[TIMELINE_CHUNK_ENV] = str(int(chunk_refs))
    else:
        os.environ.pop(TIMELINE_CHUNK_ENV, None)
    return _recorder


def install_from_env() -> Optional[TimelineRecorder]:
    """Worker-side: adopt the supervisor's timeline file, if any."""
    global _recorder
    path = os.environ.get(TIMELINE_ENV)
    if not path:
        return _recorder
    chunk: Optional[int] = None
    raw = os.environ.get(TIMELINE_CHUNK_ENV)
    if raw:
        try:
            chunk = int(raw)
        except ValueError:
            chunk = None
    if _recorder is not None:
        _recorder.close()
    _recorder = TimelineRecorder(path, chunk_refs=chunk)
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


def kernel_tier() -> str:
    """The configured kernel tier, the ``tier`` label of timeline rows."""
    from repro.mem import kernels

    return kernels.active_kernel_config().tier


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
            tier=kernel_tier(),
        )
    except Exception:
        obs_metrics.inc("obs.timeline.write_errors")


# -- status/report helpers --------------------------------------------------


def load_working_set(
    run_dir: Union[str, Path], tail_bytes: int = 1 << 19
) -> Optional[Dict[str, object]]:
    """Live working-set summary from the tail of ``timeline.jsonl``.

    Reads only the last ``tail_bytes`` of the file (status must stay
    cheap against a multi-gigabyte streamed campaign), segments the
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
    for line in raw.split(b"\n"):
        record = decode_frame(line)
        if record is not None:
            rows.append(record)
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
