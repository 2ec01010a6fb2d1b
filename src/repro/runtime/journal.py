"""Append-only write-ahead journal of campaign state transitions.

PRs 1–3 made *worker* failures survivable; this module makes the
**supervisor** itself crash-consistent.  Every state transition the
campaign engine makes — campaign start, attempt start/end, checkpoint
flush, summary flush, interruption, recovery — is appended to
``<run_dir>/journal.wal`` *before* the engine acts on it, with an
fsync per record, so a ``kill -9`` of ``python -m repro.experiments``
at any instruction leaves a journal from which the exact campaign
state can be reconstructed.

**Record framing.**  One ``WAL1`` record per line, in the shared frame
of :mod:`repro.runtime.records` (``WAL1 <crc32:08x> <canonical-json>``)
and under its damage rule: a torn tail (the one damaged line a crash
can leave after the last intact record) is truncated on recovery; any
other damage indicts the storage and is surfaced, never skipped.

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

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.obs import metrics as obs_metrics
from repro.runtime import records
from repro.runtime.errors import JournalCorruptError

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
        self._log: Optional[records.RecordLog] = None
        self._seq = 0
        self._lock = threading.Lock()

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
            if self._log is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._log = records.RecordLog(
                    self.path, JOURNAL_MAGIC, "journal", fsync=self.fsync
                )
                # Continue the sequence of whatever is already on disk so
                # appends after a resume stay strictly increasing.
                if self._seq == 0 and self._log.last is not None:
                    self._seq = int(self._log.last.get("seq", 0))
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
            self._log.append(record)
            obs_metrics.inc("runtime.journal.appends")
            return record

    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class JournalReplay(records.Scan):
    """The decoded contents of one journal file (:func:`read_journal`)."""

    @property
    def corrupt(self) -> List[tuple]:
        """Damage before the tail: storage corruption, not a crash."""
        return self.damaged

    @property
    def last_token(self) -> int:
        """The highest fencing token recorded (0 for an empty journal)."""
        tokens = [r.get("token") for r in self.records]
        return max((t for t in tokens if isinstance(t, int)), default=0)


def read_journal(path: Union[str, Path]) -> JournalReplay:
    """Replay a journal file; damage is located, never raised."""
    return JournalReplay(**vars(records.scan(path, JOURNAL_MAGIC)))


def truncate_torn_tail(path: Union[str, Path]) -> int:
    """Truncate a journal to its last intact record.

    Returns the number of bytes dropped (0 when the file is intact or
    missing).  Raises :class:`JournalCorruptError` when the journal has
    damage other than a torn tail — truncating would silently discard
    committed records, so that case must be surfaced to a human.
    """
    replay = read_journal(path)
    if replay.corrupt:
        first = replay.corrupt[0]
        raise JournalCorruptError(
            f"journal {path} is corrupt before its tail "
            f"(first damage at line {first[0]}: {first[1]}); refusing to "
            "truncate through committed records"
        )
    return records.truncate_torn_tail(path, JOURNAL_MAGIC, "journal")


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
