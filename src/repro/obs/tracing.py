"""Tracing spans for the campaign runtime.

A *span* is one timed operation: a campaign, an experiment attempt, a
worker spawn, a journal fsync burst, a trace-generation phase.  Spans
carry ``trace_id`` (one per campaign), ``span_id``, ``parent_id``
(nesting), a wall-clock start, and a **monotonic** duration — wall
clocks step, monotonic clocks don't, so durations are measured with
``time.monotonic`` and only the start is wall time.

Usage mirrors the stdlib idioms the rest of the runtime uses::

    with tracing.span("attempt", experiment_id="fig6", attempt=2):
        ...

    @tracing.traced("appmodel.lu.phase")
    def trace_for_processor(self, ...): ...

Both are exact no-ops (one attribute load + ``is None`` test) unless a
:class:`Tracer` has been configured for the process, so library users
pay nothing.  The campaign CLI configures one writing to
``<run_dir>/spans.jsonl``; workers configure a buffering tracer whose
finished spans ship to the supervisor inside the AttemptSpec result
payload and are re-emitted into the campaign's span log with the
worker's ids intact (the supervisor attempt span is their parent).

``spans.jsonl`` holds one ``SPN1`` record per span in the shared CRC
frame and damage rule of :mod:`repro.runtime.records` (site
``"spans"`` for fault injection), with a tolerant reader
(:func:`read_spans`) and a strict validator in
:mod:`repro.validate.artifacts`.  :func:`to_chrome_trace` /
:func:`from_chrome_trace` convert to and from the Chrome trace-event
JSON format for ``chrome://tracing`` and Perfetto.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.runtime import records

#: Default filename inside a campaign run directory.
SPANS_FILENAME = "spans.jsonl"

#: Frame magic of span records.
SPANS_MAGIC = "SPN1"

#: Injection-site tag for the span writer.
SPANS_SITE = "spans"


def new_id() -> str:
    """16-hex-char random id (half a UUID — plenty for one campaign)."""
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One finished (or in-flight) timed operation."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    t_wall: float = 0.0
    dur_s: float = 0.0
    status: str = "ok"
    attrs: Dict[str, object] = field(default_factory=dict)
    pid: int = 0

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "t_wall": self.t_wall,
            "dur_s": self.dur_s,
            "status": self.status,
            "pid": self.pid,
        }
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Span":
        return cls(
            name=str(record["name"]),
            trace_id=str(record["trace_id"]),
            span_id=str(record["span_id"]),
            parent_id=(
                str(record["parent_id"]) if record.get("parent_id") is not None else None
            ),
            t_wall=float(record.get("t_wall", 0.0)),  # type: ignore[arg-type]
            dur_s=float(record.get("dur_s", 0.0)),  # type: ignore[arg-type]
            status=str(record.get("status", "ok")),
            attrs=dict(record.get("attrs", {})),  # type: ignore[arg-type]
            pid=int(record.get("pid", 0)),  # type: ignore[arg-type]
        )


class SpanWriter(records.RecordLog):
    """Append-only span sink (a :class:`~repro.runtime.records.RecordLog`).

    Write failures are *counted*, never raised — telemetry must not be
    able to fail a campaign.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        super().__init__(path, SPANS_MAGIC, SPANS_SITE)
        self.write_errors = 0

    def write(self, span: Span) -> None:
        try:
            self.append(span.to_dict())
        except OSError:
            self.write_errors += 1


class Tracer:
    """Creates spans; finished spans go to a writer and/or a buffer.

    The current span is tracked per *thread* (the worker-pool
    supervisor runs attempts on several threads at once), so nesting is
    correct within a thread and cross-thread spans fall back to the
    tracer's root parent (the campaign span, or the parent shipped in
    an AttemptSpec for worker processes).

    Args:
        writer: Optional :class:`SpanWriter` (supervisor process).
        trace_id: Campaign trace id; generated when omitted.
        root_parent: Parent for top-of-stack spans (worker processes
            inherit the supervisor's attempt span id here).
        buffered: Keep finished spans in memory (worker processes ship
            them over the payload protocol instead of writing files).
        clock / wall_clock: Injectable time sources for tests.
    """

    MAX_BUFFER = 10_000

    def __init__(
        self,
        writer: Optional[SpanWriter] = None,
        trace_id: Optional[str] = None,
        root_parent: Optional[str] = None,
        buffered: bool = False,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        self.trace_id = trace_id or new_id()
        self.root_parent = root_parent
        self.writer = writer
        self.buffered = buffered
        self.finished: List[Span] = []
        self.dropped = 0
        self._clock = clock
        self._wall_clock = wall_clock
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span stack ----------------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1] if stack else self.root_parent

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=new_id(),
            parent_id=self.current_span_id(),
            t_wall=self._wall_clock(),
            attrs={k: v for k, v in attrs.items() if v is not None},
            pid=os.getpid(),
        )
        stack = self._stack()
        stack.append(span.span_id)
        t0 = self._clock()
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            span.dur_s = self._clock() - t0
            stack.pop()
            self._finish(span)

    def record(
        self,
        name: str,
        t_wall: float,
        dur_s: float,
        parent_id: Optional[str] = None,
        **attrs: object,
    ) -> Span:
        """Record a span measured externally (e.g. queue-wait time)."""
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=new_id(),
            parent_id=parent_id if parent_id is not None else self.current_span_id(),
            t_wall=t_wall,
            dur_s=dur_s,
            attrs={k: v for k, v in attrs.items() if v is not None},
            pid=os.getpid(),
        )
        self._finish(span)
        return span

    def ingest(self, records: List[Dict[str, object]], parent_id: Optional[str] = None) -> int:
        """Re-emit spans shipped from a worker process.

        The worker's own ids are kept; only orphan spans (no parent —
        the worker's root) are re-parented under ``parent_id`` so the
        campaign trace stays a single tree.  Returns how many spans
        were accepted.
        """
        accepted = 0
        for record in records:
            try:
                span = Span.from_dict(record)
            except (KeyError, TypeError, ValueError):
                continue
            if span.parent_id is None and parent_id is not None:
                span.parent_id = parent_id
            span.trace_id = self.trace_id
            self._finish(span)
            accepted += 1
        return accepted

    def _finish(self, span: Span) -> None:
        if self.writer is not None:
            self.writer.write(span)
        if self.buffered:
            with self._lock:
                if len(self.finished) < self.MAX_BUFFER:
                    self.finished.append(span)
                else:
                    self.dropped += 1

    def drain(self) -> List[Span]:
        """Return and clear the buffered finished spans."""
        with self._lock:
            spans, self.finished = self.finished, []
            return spans


# -- the ambient tracer --------------------------------------------------

_tracer: Optional[Tracer] = None


def configure(
    writer: Optional[SpanWriter] = None,
    trace_id: Optional[str] = None,
    root_parent: Optional[str] = None,
    buffered: bool = False,
    clock: Callable[[], float] = time.monotonic,
    wall_clock: Callable[[], float] = time.time,
) -> Tracer:
    """Install the process-wide tracer (replacing any previous one)."""
    global _tracer
    _tracer = Tracer(
        writer=writer,
        trace_id=trace_id,
        root_parent=root_parent,
        buffered=buffered,
        clock=clock,
        wall_clock=wall_clock,
    )
    return _tracer


def get_tracer() -> Optional[Tracer]:
    return _tracer


def shutdown() -> None:
    """Tear down the ambient tracer, closing its writer."""
    global _tracer
    tracer, _tracer = _tracer, None
    if tracer is not None and tracer.writer is not None:
        tracer.writer.close()


@contextmanager
def span(name: str, **attrs: object) -> Iterator[Optional[Span]]:
    """Span on the ambient tracer; exact no-op when none is configured."""
    tracer = _tracer
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as s:
        yield s


def traced(name: Optional[str] = None, **attrs: object) -> Callable:
    """Decorator form of :func:`span` (resolves the tracer per call)."""

    def decorate(func: Callable) -> Callable:
        span_name = name or func.__qualname__

        @wraps(func)
        def wrapper(*args: object, **kwargs: object) -> object:
            tracer = _tracer
            if tracer is None:
                return func(*args, **kwargs)
            with tracer.span(span_name, **attrs):
                return func(*args, **kwargs)

        return wrapper

    return decorate


# -- files and formats ---------------------------------------------------


def read_spans(path: Union[str, Path]) -> List[Span]:
    """Parse a spans file, skipping damaged lines and alien records."""
    spans: List[Span] = []
    for record in records.scan(path, SPANS_MAGIC).records:
        try:
            spans.append(Span.from_dict(record))
        except (KeyError, TypeError, ValueError):
            continue
    return spans


def to_chrome_trace(spans: List[Span]) -> Dict[str, object]:
    """Convert spans to Chrome trace-event JSON (complete 'X' events).

    Timestamps and durations are microseconds; ``pid`` is the real
    process id and ``tid`` packs the span's trace-local identity so
    Perfetto keeps parent/child rows distinguishable.  The span's ids
    ride along in ``args`` so :func:`from_chrome_trace` can round-trip.
    """
    events: List[Dict[str, object]] = []
    for s in spans:
        args: Dict[str, object] = {
            "trace_id": s.trace_id,
            "span_id": s.span_id,
            "status": s.status,
        }
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        args.update(s.attrs)
        events.append(
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": round(s.t_wall * 1e6, 3),
                "dur": round(s.dur_s * 1e6, 3),
                "pid": s.pid,
                "tid": s.pid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def from_chrome_trace(payload: Dict[str, object]) -> List[Span]:
    """Rebuild spans from :func:`to_chrome_trace` output."""
    spans: List[Span] = []
    for event in payload.get("traceEvents", []):  # type: ignore[union-attr]
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id", None)
        trace_id = args.pop("trace_id", None)
        if span_id is None or trace_id is None:
            continue
        parent_id = args.pop("parent_id", None)
        status = args.pop("status", "ok")
        spans.append(
            Span(
                name=str(event.get("name", "")),
                trace_id=str(trace_id),
                span_id=str(span_id),
                parent_id=str(parent_id) if parent_id is not None else None,
                t_wall=float(event.get("ts", 0.0)) / 1e6,  # type: ignore[arg-type]
                dur_s=float(event.get("dur", 0.0)) / 1e6,  # type: ignore[arg-type]
                status=str(status),
                attrs=args,
                pid=int(event.get("pid", 0)),  # type: ignore[arg-type]
            )
        )
    return spans
