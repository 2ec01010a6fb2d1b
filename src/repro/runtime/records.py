"""One framed record log for every append-only artifact.

Every log a campaign writes — ``journal.wal`` and the streaming
substrate's ``shards.wal`` / ``<key>.ckpt.wal``, ``events.jsonl``,
``spans.jsonl``, ``timeline.jsonl``, ``perf-archive.jsonl`` — and every
simulator snapshot (``<key>.ckpt``) stores its records in one frame,
one record per line::

    <MAGIC> <crc32:08x> <canonical-json>\\n

The CRC32 covers the canonical JSON bytes (sorted keys, no spaces);
the magic names the log type (``WAL1``, ``EVT1``, ``SPN1``, ``TLN1``,
``PFA1``, ``SIMCKPT1``).  A line is a record only when the magic, the
CRC, the JSON object and the terminating newline all agree.

**The damage rule.**  :class:`RecordLog` writes each record with one
``write`` on an ``O_APPEND`` descriptor, so a crash can leave at most
one partial line, and only at the end of the file.  Hence:

- the *torn tail* is whatever follows the last intact record, provided
  it is at most one line, terminated or not.  It is the crash
  signature: readers skip it, validators warn about it, and every
  appender truncates it before appending;
- any other damage — a bad line followed by an intact record, or two
  or more bad lines at the end — cannot come from a crash.  It is an
  error, and nothing ever truncates it.

The module also holds the one durable-write discipline every artifact
shares.  :func:`atomic_write_bytes` / :func:`atomic_write_text` replace
a file so the change survives a crash: write a temporary file in the
destination directory, ``fsync`` it, ``os.replace`` it into place, then
``fsync`` the *directory*, without which a rename can be undone by
power loss.  Every durability-relevant syscall (``io_write``,
``io_fsync``, ``io_replace``, ``fsync_directory``, ``check_io``)
carries a *site* tag (``"journal"``, ``"checkpoint"``, ``"events"``,
``"tracefile"``, ``"shard"``, ...) and first calls :data:`io_hook`,
which is ``None`` in the product: the one seam through which the
tests' fault injector (``tests/harness/iofault.py``) plants ``ENOSPC``,
``EIO``, torn writes and in-write SIGKILLs.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import tempfile
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

Record = Dict[str, object]

#: The I/O fault seam: ``None`` in the product.  A test may set it to a
#: callable ``(site, op, fd, data)`` that every tagged write, fsync and
#: rename calls first; it may raise ``OSError`` (after writing a torn
#: prefix of ``data`` to ``fd``, if it likes) or kill the process.
io_hook: Optional[
    Callable[[str, str, Optional[int], Optional[bytes]], None]
] = None


# -- tagged syscalls and the atomic write -----------------------------------


def check_io(site: str, op: str) -> None:
    """The seam for writes handed to a third-party writer (numpy's
    ``savez``): called where such a write begins."""
    if io_hook is not None:
        io_hook(site, op, None, None)


def io_write(fd: int, data: bytes, site: str) -> int:
    """``os.write`` with full-write semantics."""
    if io_hook is not None:
        io_hook(site, "write", fd, data)
    written = 0
    view = memoryview(data)
    while written < len(view):
        written += os.write(fd, view[written:])
    return written


def io_fsync(fd: int, site: str) -> None:
    if io_hook is not None:
        io_hook(site, "fsync", None, None)
    os.fsync(fd)


def io_replace(src: Union[str, Path], dst: Union[str, Path], site: str) -> None:
    if io_hook is not None:
        io_hook(site, "replace", None, None)
    os.replace(src, dst)


def fsync_directory(path: Union[str, Path], site: str = "dir") -> None:
    """fsync a directory so a rename inside it is durable.

    Best-effort: a filesystem that refuses to fsync a directory fd
    degrades to a no-op (the rename is still atomic, just not
    power-loss-durable).  A fault from :data:`io_hook` does propagate.
    """
    if io_hook is not None:
        io_hook(site, "fsync", None, None)
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: Union[str, Path],
    data: bytes,
    site: str = "atomic",
    durable: bool = True,
) -> None:
    """Atomically (and, by default, durably) replace ``path`` with ``data``.

    On any failure the temporary file is unlinked, so a failed write
    leaves no ``*.tmp`` litter, and the old contents of ``path`` stay.
    ``durable=False`` skips both fsyncs, for callers that need only
    atomicity (the ``metrics.json`` snapshot).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        try:
            io_write(fd, data, site)
            if durable:
                io_fsync(fd, site)
        finally:
            os.close(fd)
        io_replace(tmp_name, path, site)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if durable:
        fsync_directory(path.parent, site)


def atomic_write_text(
    path: Union[str, Path],
    text: str,
    site: str = "atomic",
    durable: bool = True,
) -> None:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    atomic_write_bytes(path, text.encode("utf-8"), site=site, durable=durable)


# -- the framed record log ---------------------------------------------------


def frame(magic: str, record: Record) -> bytes:
    """Encode one record as its framed line."""
    data = json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    return f"{magic} {zlib.crc32(data):08x} ".encode("ascii") + data + b"\n"


def decode(line: bytes, magic: str) -> Record:
    """Decode one framed line; raises ``ValueError`` naming the defect."""
    if not line.endswith(b"\n"):
        raise ValueError("record has no terminating newline")
    parts = line[:-1].split(b" ", 2)
    if len(parts) != 3 or parts[0] != magic.encode("ascii"):
        raise ValueError(f"bad framing (expected '{magic} <crc32> <json>')")
    actual = f"{zlib.crc32(parts[2]):08x}"
    if parts[1] != actual.encode("ascii"):
        stated = parts[1].decode("ascii", "replace")
        raise ValueError(f"CRC mismatch (stated {stated}, actual {actual})")
    record = json.loads(parts[2])  # bad JSON or UTF-8 raise ValueError
    if not isinstance(record, dict):
        raise ValueError("record payload is not a JSON object")
    return record


@dataclass
class Scan:
    """The decoded contents of one log file.

    Attributes:
        records: Every intact record, in file order.
        good_bytes: File offset just past the last intact record.
        torn_tail: One damaged line follows the last intact record (the
            crash signature; appenders truncate it).
        damaged: ``(line_number, reason)`` for every other damaged line.
    """

    records: List[Record] = field(default_factory=list)
    good_bytes: int = 0
    torn_tail: bool = False
    damaged: List[Tuple[int, str]] = field(default_factory=list)


def scan(path: Union[str, Path], magic: str) -> Scan:
    """Read a log, locating (never raising on) damage.

    A missing or unreadable file scans as empty.
    """
    found = Scan()
    try:
        data = Path(path).read_bytes()
    except OSError:
        return found
    pending: List[Tuple[int, str]] = []  # damage since the last record
    start = lineno = 0
    while start < len(data):
        end = data.find(b"\n", start) + 1 or len(data)
        lineno += 1
        try:
            record = decode(data[start:end], magic)
        except ValueError as exc:
            pending.append((lineno, str(exc)))
        else:
            found.damaged.extend(pending)
            pending = []
            found.records.append(record)
            found.good_bytes = end
        start = end
    found.torn_tail = len(pending) == 1
    if not found.torn_tail:
        found.damaged.extend(pending)
    return found


def _tail(data: bytes, magic: str) -> Tuple[int, Optional[Record]]:
    """Where the torn tail starts (``len(data)`` without one), and the
    last intact record — found by walking back from the end."""
    end, bad, last = len(data), 0, None
    while end > 0 and last is None:
        start = data.rfind(b"\n", 0, end - 1) + 1
        try:
            last = decode(data[start:end], magic)
        except ValueError:
            bad, end = bad + 1, start
    return (end if bad == 1 else len(data)), last


@contextlib.contextmanager
def _flocked(fd: int) -> Iterator[None]:
    """Exclude other processes appending to (or repairing) the same file."""
    fcntl.flock(fd, fcntl.LOCK_EX)
    try:
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)


def _cut_torn_tail(
    fd: int, path: Path, magic: str, site: str
) -> Tuple[int, Optional[Record]]:
    """Truncate ``path`` (open as ``fd``, flock held) to drop its torn
    tail; returns the bytes dropped and the last intact record."""
    data = path.read_bytes()
    cut, last = _tail(data, magic)
    if cut < len(data):
        os.ftruncate(fd, cut)
        io_fsync(fd, site)
    return len(data) - cut, last


def truncate_torn_tail(path: Union[str, Path], magic: str, site: str) -> int:
    """Drop a log's torn tail; returns the number of bytes dropped.

    Returns 0 for an intact or missing file.  Damage that is not a torn
    tail is left in place for the validator to report.
    """
    try:
        fd = os.open(path, os.O_WRONLY)
    except FileNotFoundError:
        return 0
    try:
        with _flocked(fd):
            return _cut_torn_tail(fd, Path(path), magic, site)[0]
    finally:
        os.close(fd)


class RecordLog:
    """The one appender for every framed log.

    Opens ``path`` with ``O_APPEND`` (creating the file, not its
    directory) and truncates a torn tail left by a killed writer, so a
    new record never welds onto a fragment.  Each :meth:`append` is one
    ``write`` under a thread lock and an ``flock``, so records stay
    whole across threads and processes appending to the same file.

    Args:
        path: The log file.
        magic: Frame magic of this log type.
        site: Site tag of its writes (see :data:`io_hook`); fsyncs
            are timed as
            ``runtime.<site>.fsync_seconds``.
        fsync: fsync after every record, and the directory entry of a
            newly created file.

    Attributes:
        last: The last intact record on disk at open (``None`` for a new
            or empty log), so sequenced logs continue their ``seq``.
    """

    def __init__(
        self,
        path: Union[str, Path],
        magic: str,
        site: str,
        fsync: bool = False,
    ) -> None:
        self.path = Path(path)
        self.magic = magic
        self.site = site
        self.fsync = fsync
        self.last: Optional[Record] = None
        self._lock = threading.Lock()
        self._torn = False
        existed = self.path.exists()
        self._fd: Optional[int] = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            if existed:
                with _flocked(self._fd):
                    _, self.last = _cut_torn_tail(self._fd, self.path, magic, site)
            elif fsync:
                fsync_directory(self.path.parent, site)
        except BaseException:
            self.close()
            raise

    def append(self, record: Record) -> None:
        """Append one record; a no-op once the log is closed.

        Raises ``OSError`` when the disk refuses.  The next append first
        truncates whatever torn bytes the failed one left.
        """
        line = frame(self.magic, record)
        with self._lock:
            if self._fd is None:
                return
            # Inline rather than _flocked: this is the per-record path.
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            try:
                if self._torn:
                    _cut_torn_tail(self._fd, self.path, self.magic, self.site)
                    self._torn = False
                io_write(self._fd, line, self.site)
                if self.fsync:
                    # Imported here: repro.obs imports this module.
                    from repro.obs import metrics as obs_metrics

                    with obs_metrics.timed(f"runtime.{self.site}.fsync_seconds"):
                        io_fsync(self._fd, self.site)
            except OSError:
                self._torn = True
                raise
            finally:
                fcntl.flock(self._fd, fcntl.LOCK_UN)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
