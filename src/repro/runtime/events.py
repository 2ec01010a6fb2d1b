"""Structured, checksummed event log for campaign post-mortems.

A failed or interrupted campaign must be reconstructible without
scraping stdout.  :class:`EventLog` appends one record per engine
event to ``events.jsonl`` inside the run directory::

    EVT1 <crc32:08x> {"attempt":1,"event":"worker-killed",
        "experiment_id":"fig6","seq":3,"signal":"SIGKILL",
        "t_mono":1.042,"t_wall":1754450000.1}

- ``seq`` is a strictly increasing sequence number, so interleavings
  from the parallel supervisor threads have a total order even when
  timestamps tie.
- ``t_mono`` is a monotonic timestamp relative to the log's creation
  (safe for measuring intervals); ``t_wall`` is Unix time (for
  correlating with the outside world).
- Everything else is the event name plus free-form detail fields.

Each event is one ``EVT1`` record in the shared CRC frame of
:mod:`repro.runtime.records`, appended with a single ``write`` (site
``"events"`` for fault injection) under a lock, so the log is safe to
write from the worker-pool supervisor threads and every record is
intact even if the supervisor itself is SIGKILLed mid-campaign.  The
records module's damage rule applies: a torn tail is truncated by the
next :class:`EventLog` (which continues its ``seq``) and skipped by
:func:`read_events`.  Pass ``fsync=True`` for power-loss durability
per event; the default relies on the kernel having the bytes, which
kill semantics preserve.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.runtime import records

#: Default filename inside a campaign run directory.
EVENTS_FILENAME = "events.jsonl"

#: Frame magic of event records.
EVENTS_MAGIC = "EVT1"


class EventLog(records.RecordLog):
    """Append-only log of engine events (one ``EVT1`` record each).

    Args:
        path: Destination file; parent directories are created.
        clock: Monotonic time source (injectable for tests).
        wall_clock: Wall time source (injectable for tests).
        fsync: fsync after every event (power-loss durability; off by
            default — process-kill durability needs only the write).
    """

    def __init__(
        self,
        path: Union[str, Path],
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
        fsync: bool = False,
    ) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        super().__init__(path, EVENTS_MAGIC, "events", fsync=fsync)
        self._clock = clock
        self._wall_clock = wall_clock
        self._origin = clock()
        # Continue the sequence of the previous (killed) writer, so
        # ``seq`` stays strictly increasing across supervisor generations.
        seq = self.last.get("seq") if self.last is not None else None
        self._seq = seq if isinstance(seq, int) else 0
        self._seq_lock = threading.Lock()

    def emit(
        self, event: str, experiment_id: Optional[str] = None, **detail: object
    ) -> Dict[str, object]:
        """Append one event line; returns the record that was written."""
        with self._seq_lock:
            self._seq += 1
            record: Dict[str, object] = {
                "seq": self._seq,
                "t_mono": self._clock() - self._origin,
                "t_wall": self._wall_clock(),
                "event": event,
            }
            if experiment_id is not None:
                record["experiment_id"] = experiment_id
            for key, value in detail.items():
                if value is not None:
                    record[key] = value
            self.append(record)
            return record


def read_events(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Every intact event record, skipping damaged lines."""
    return records.scan(path, EVENTS_MAGIC).records
