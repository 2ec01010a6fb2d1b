"""Append-only write-ahead journal of campaign state transitions.

PRs 1–3 made *worker* failures survivable; this module makes the
**supervisor** itself crash-consistent.  Every state transition the
campaign engine makes — campaign start, attempt start/end, checkpoint
flush, summary flush, interruption, recovery — is appended to
``<run_dir>/journal.wal`` *before* the engine acts on it, with an
fsync per record, so a ``kill -9`` of ``python -m repro.experiments``
at any instruction leaves a journal from which the exact campaign
state can be reconstructed.

**Record framing.**  One record per line::

    WAL1 <crc32:08x> <canonical-json>\\n

The CRC32 covers the JSON bytes.  A record is accepted only when the
magic, CRC, and JSON decode all agree; anything else is either a
*torn tail* (damage at the very end of the file — the only damage a
single-writer append-fsync discipline can produce on crash) or
*corruption* (damage anywhere earlier, which the discipline cannot
produce and which therefore indicts the storage).  Replay truncates a
torn tail; corruption is surfaced, never silently skipped.

**Record contents.**  Every record carries ``seq`` (per-journal,
strictly increasing), ``token`` (the supervisor's fencing token, see
:mod:`repro.runtime.lease`), ``t_wall``, and ``type``; records about an
attempt also carry ``attempt_uid`` — ``"<experiment_id>@<token>.<attempt>"``
— which is unique across supervisor generations because every
restart bumps the token.

**Recovery.**  :func:`recover` replays the journal against the
checkpoint store and ``events.jsonl`` and classifies every experiment:

- ``committed`` — the journal records a successful ``attempt-end`` (or
  the crash landed in the tiny window after the checkpoint rename but
  before the journal append — detected by a valid checkpoint plus a
  corroborating ``checkpointed`` event) **and** the checkpoint on disk
  verifies.  Resume skips these; re-executing one would be the
  double-execution the acceptance gate forbids.
- ``in_doubt`` — an ``attempt-start`` with no ``attempt-end``: the
  supervisor died mid-attempt.  The attempt may have done arbitrary
  partial work but committed nothing; resume re-runs it under a new
  fencing token (a new ``attempt_uid``).
- ``lost`` — the journal committed an attempt but the checkpoint is
  missing or fails its checksum (a disk fault ate it).  Resume re-runs
  the experiment and the loss is recorded rather than silently
  forgotten.

Recovery is idempotent: replaying an already-recovered journal
reclassifies identically, and tail truncation on an intact file is a
no-op.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.obs import metrics as obs_metrics
from repro.runtime.errors import JournalCorruptError
from repro.runtime.iofault import fsync_directory, io_fsync, io_write

#: Filename inside a campaign run directory.
JOURNAL_FILENAME = "journal.wal"

#: Line magic; bumped if the framing ever changes.
JOURNAL_MAGIC = "WAL1"

#: Every record type a journal accepts; the journal-record schema
#: (:mod:`repro.validate.schemas`) enumerates this same tuple.  The
#: first seven are the campaign engine's state transitions.
#: ``shard-sealed`` and ``sim-checkpoint`` belong to the streaming
#: trace substrate (:mod:`repro.mem.shards` / :mod:`repro.mem.streamsim`):
#: one per sealed trace shard (``shards.wal`` inside a ``.trd``
#: directory) and one per simulator snapshot (``<key>.ckpt.wal``).
RECORD_TYPES = (
    "campaign-start",
    "attempt-start",
    "attempt-end",
    "checkpoint-flushed",
    "summary-flushed",
    "interrupted",
    "recovered",
    "shard-sealed",
    "sim-checkpoint",
)

#: ``attempt-end`` statuses that commit an experiment.
COMMITTED_STATUSES = ("ok", "degraded")


def attempt_uid(experiment_id: str, token: int, attempt: int) -> str:
    """The globally unique id of one attempt execution.

    Unique across supervisor restarts because every restart bumps the
    fencing token; "exactly-once per attempt uid" is therefore a
    meaningful invariant even for experiments that were legitimately
    re-run after a crash.
    """
    return f"{experiment_id}@{token}.{attempt}"


def frame_record(record: Dict[str, object]) -> bytes:
    """Encode one record into its CRC-framed line."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    data = payload.encode("utf-8")
    return (
        f"{JOURNAL_MAGIC} {zlib.crc32(data):08x} ".encode("ascii")
        + data
        + b"\n"
    )


class Journal:
    """The append side: fsync-disciplined CRC-framed record writer.

    Args:
        path: The ``journal.wal`` file (parent created on first append).
        token: Fencing token stamped into every record (see
            :mod:`repro.runtime.lease`); mutable — a reclaim mid-test
            can bump it.
        fsync: fsync the journal fd after every record (the default;
            disable only in throughput tests).
        wall_clock: Injectable time source.
    """

    def __init__(
        self,
        path: Union[str, Path],
        token: int = 0,
        fsync: bool = True,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = Path(path)
        self.token = token
        self.fsync = fsync
        self._wall_clock = wall_clock
        self._fd: Optional[int] = None
        self._seq = 0
        import threading

        self._lock = threading.Lock()

    def _ensure_open(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            existed = self.path.exists()
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            if not existed:
                fsync_directory(self.path.parent, "journal")
            # Continue the sequence of whatever is already on disk so
            # appends after a resume stay strictly increasing.
            if existed and self._seq == 0:
                replay = read_journal(self.path)
                if replay.records:
                    self._seq = int(replay.records[-1].get("seq", 0))
        return self._fd

    def append(self, record_type: str, **fields: object) -> Dict[str, object]:
        """Append one record and (by default) fsync it to disk.

        Returns the record as written.  Raises ``OSError`` if the disk
        rejects the write — the caller decides whether that is fatal;
        the framing guarantees a failed append is at worst a torn tail.
        """
        if record_type not in RECORD_TYPES:
            raise ValueError(
                f"unknown journal record type {record_type!r}; "
                f"choices: {RECORD_TYPES}"
            )
        with self._lock:
            fd = self._ensure_open()
            self._seq += 1
            record: Dict[str, object] = {
                "seq": self._seq,
                "token": self.token,
                "t_wall": self._wall_clock(),
                "type": record_type,
            }
            for key, value in fields.items():
                if value is not None:
                    record[key] = value
            io_write(fd, frame_record(record), "journal")
            if self.fsync:
                with obs_metrics.timed("runtime.journal.fsync_seconds"):
                    io_fsync(fd, "journal")
            obs_metrics.inc("runtime.journal.appends")
            return record

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class JournalReplay:
    """The decoded contents of one journal file.

    Attributes:
        records: Every intact record, in file order.
        good_bytes: File offset just past the last intact record.
        torn_tail: True when bytes after ``good_bytes`` exist but do
            not frame a complete record (the expected crash signature).
        corrupt: ``(line_number, reason)`` for every damaged line that
            is *not* the tail — storage corruption, not a crash.
    """

    records: List[Dict[str, object]] = field(default_factory=list)
    good_bytes: int = 0
    torn_tail: bool = False
    corrupt: List[tuple] = field(default_factory=list)

    @property
    def last_token(self) -> int:
        """The highest fencing token recorded (0 for an empty journal)."""
        best = 0
        for record in self.records:
            token = record.get("token")
            if isinstance(token, int) and token > best:
                best = token
        return best


def _decode_line(line: bytes) -> Dict[str, object]:
    """Decode one framed line; raises ``ValueError`` on any defect."""
    if not line.endswith(b"\n"):
        raise ValueError("record has no terminating newline")
    body = line[:-1]
    parts = body.split(b" ", 2)
    if len(parts) != 3 or parts[0] != JOURNAL_MAGIC.encode("ascii"):
        raise ValueError("bad record framing (magic/field count)")
    try:
        stated_crc = int(parts[1], 16)
    except ValueError:
        raise ValueError(f"unparseable CRC field {parts[1]!r}")
    actual_crc = zlib.crc32(parts[2])
    if stated_crc != actual_crc:
        raise ValueError(
            f"CRC mismatch (stated {stated_crc:08x}, actual {actual_crc:08x})"
        )
    record = json.loads(parts[2].decode("utf-8"))
    if not isinstance(record, dict):
        raise ValueError("record payload is not a JSON object")
    return record


def read_journal(path: Union[str, Path]) -> JournalReplay:
    """Replay a journal file, tolerating (and locating) damage.

    Never raises on damaged content: a damaged final region is
    reported as ``torn_tail``; damage anywhere earlier is collected
    into ``corrupt``.  A missing file replays as empty.
    """
    path = Path(path)
    replay = JournalReplay()
    if not path.is_file():
        return replay
    data = path.read_bytes()
    offset = 0
    lineno = 0
    pending: List[tuple] = []  # damage seen since the last good record
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            # Unterminated final line: the canonical torn tail.
            replay.torn_tail = True
            break
        lineno += 1
        line = data[offset : newline + 1]
        try:
            record = _decode_line(line)
        except (ValueError, json.JSONDecodeError) as exc:
            pending.append((lineno, str(exc)))
        else:
            # Damage *followed by* a good record cannot be a torn tail.
            replay.corrupt.extend(pending)
            pending = []
            replay.records.append(record)
            replay.good_bytes = newline + 1
        offset = newline + 1
    if pending:
        # Damaged-but-terminated lines at the very end: still the tail
        # (e.g. a short write that happened to include the newline).
        replay.torn_tail = True
    return replay


def truncate_torn_tail(path: Union[str, Path]) -> int:
    """Truncate a journal to its last intact record.

    Returns the number of bytes dropped (0 when the file is intact or
    missing).  Raises :class:`JournalCorruptError` when the journal has
    mid-file corruption — truncating would silently discard committed
    records, so that case must be surfaced to a human.
    """
    path = Path(path)
    replay = read_journal(path)
    if replay.corrupt:
        first = replay.corrupt[0]
        raise JournalCorruptError(
            f"journal {path} is corrupt before its tail "
            f"(first damage at line {first[0]}: {first[1]}); refusing to "
            "truncate through committed records"
        )
    if not path.is_file():
        return 0
    total = path.stat().st_size
    dropped = total - replay.good_bytes
    if dropped > 0:
        with open(path, "rb+") as handle:
            handle.truncate(replay.good_bytes)
            handle.flush()
            io_fsync(handle.fileno(), "journal")
    return dropped


@dataclass
class RecoveryReport:
    """What :func:`recover` concluded about a run directory.

    Attributes:
        committed: Experiment ids resume may safely skip.
        in_doubt: Ids whose last attempt started but never ended.
        lost: Ids the journal committed but whose checkpoint is gone.
        truncated_bytes: Torn-tail bytes dropped from the journal.
        torn_tail: Whether a torn tail was found (and truncated).
        last_token: Highest fencing token seen in the journal.
        notes: Human-readable reconciliation notes.
    """

    committed: List[str] = field(default_factory=list)
    in_doubt: List[str] = field(default_factory=list)
    lost: List[str] = field(default_factory=list)
    truncated_bytes: int = 0
    torn_tail: bool = False
    last_token: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing was torn, lost, or in doubt."""
        return not (self.torn_tail or self.lost or self.in_doubt)

    def to_dict(self) -> Dict[str, object]:
        return {
            "committed": list(self.committed),
            "in_doubt": list(self.in_doubt),
            "lost": list(self.lost),
            "truncated_bytes": self.truncated_bytes,
            "torn_tail": self.torn_tail,
            "last_token": self.last_token,
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = ["== journal recovery =="]
        lines.append(
            f"  committed: {len(self.committed)}, in-doubt: "
            f"{len(self.in_doubt)}, lost: {len(self.lost)}"
        )
        if self.torn_tail:
            lines.append(
                f"  torn tail truncated ({self.truncated_bytes} byte(s))"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def recover(
    run_dir: Union[str, Path],
    journal_path: Optional[Union[str, Path]] = None,
) -> Optional[RecoveryReport]:
    """Reconcile the journal against the checkpoint store and event log.

    Returns None when the run directory has no journal (a pre-journal
    run dir, or a campaign that never started): the caller falls back
    to checkpoint-presence resume.  Raises
    :class:`JournalCorruptError` on mid-file journal corruption.
    """
    run_dir = Path(run_dir)
    journal_path = Path(journal_path or run_dir / JOURNAL_FILENAME)
    if not journal_path.is_file():
        return None

    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.events import read_events

    report = RecoveryReport()
    report.truncated_bytes = truncate_torn_tail(journal_path)
    replay = read_journal(journal_path)
    report.torn_tail = report.truncated_bytes > 0
    report.last_token = replay.last_token

    store = CheckpointStore(run_dir)
    events = read_events(store.events_path)
    checkpointed_event_ids = {
        str(event.get("experiment_id"))
        for event in events
        if event.get("event") == "checkpointed"
        and event.get("status") in COMMITTED_STATUSES
    }

    # Last journal verdict per experiment id, in journal order.
    started: Dict[str, Dict[str, object]] = {}
    ended: Dict[str, str] = {}
    flushed: set = set()
    for record in replay.records:
        record_type = record.get("type")
        experiment_id = record.get("experiment_id")
        if not isinstance(experiment_id, str):
            continue
        if record_type == "attempt-start":
            started[experiment_id] = record
            ended.pop(experiment_id, None)
            flushed.discard(experiment_id)
        elif record_type == "attempt-end":
            started.pop(experiment_id, None)
            ended[experiment_id] = str(record.get("status", ""))
        elif record_type == "checkpoint-flushed" and (
            record.get("status") in COMMITTED_STATUSES
        ):
            flushed.add(experiment_id)

    seen: List[str] = []
    for experiment_id, status in ended.items():
        seen.append(experiment_id)
        if status not in COMMITTED_STATUSES:
            continue  # failed attempts never commit; resume re-runs them
        if store.has_result(experiment_id):
            report.committed.append(experiment_id)
        else:
            report.lost.append(experiment_id)
            report.notes.append(
                f"{experiment_id}: journal committed it but its checkpoint "
                "is missing or corrupt — re-running"
            )
    for experiment_id, record in started.items():
        seen.append(experiment_id)
        # The crash window between the checkpoint rename and the
        # journal's attempt-end append: the checkpoint is valid and
        # either the checkpoint-flushed journal record or the
        # ``checkpointed`` event corroborates that the flush completed.
        corroborated = (
            experiment_id in flushed or experiment_id in checkpointed_event_ids
        )
        if store.has_result(experiment_id) and corroborated:
            report.committed.append(experiment_id)
            report.notes.append(
                f"{experiment_id}: in-doubt in the journal but its "
                "checkpoint verifies and the event log corroborates — "
                "promoted to committed"
            )
        else:
            report.in_doubt.append(experiment_id)

    # Valid checkpoints the journal never mentions (an older campaign's
    # leftovers, or a journal that was recreated): trust the checksum,
    # but say so.
    for experiment_id in store.completed_ids():
        if experiment_id not in seen:
            report.committed.append(experiment_id)
            report.notes.append(
                f"{experiment_id}: valid checkpoint with no journal record "
                "(pre-journal run dir or recreated journal) — trusted on "
                "its checksum"
            )
    return report
