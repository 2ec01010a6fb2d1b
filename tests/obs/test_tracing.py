"""Tests for tracing spans, the span writer, and format conversions."""

from __future__ import annotations

import json

import pytest

from repro.obs import tracing
from repro.obs.tracing import (
    SPANS_MAGIC,
    Span,
    SpanWriter,
    Tracer,
    from_chrome_trace,
    read_spans,
    to_chrome_trace,
)
from repro.runtime.records import decode, frame


def make_tracer(**kwargs):
    ticks = iter(float(i) for i in range(1000))
    kwargs.setdefault("clock", lambda: next(ticks))
    kwargs.setdefault("wall_clock", lambda: 1700000000.0)
    kwargs.setdefault("buffered", True)
    return Tracer(**kwargs)


class TestTracer:
    def test_nested_spans_link_parent_ids(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert {s.name for s in tracer.finished} == {"outer", "inner"}

    def test_exception_marks_span_error_and_propagates(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.finished
        assert span.status == "error"

    def test_root_parent_adopted_by_top_level_spans(self):
        tracer = make_tracer(root_parent="abc123")
        with tracer.span("top"):
            pass
        assert tracer.finished[0].parent_id == "abc123"

    def test_record_external_measurement(self):
        tracer = make_tracer()
        span = tracer.record("queue.wait", t_wall=5.0, dur_s=0.25, exp="a")
        assert span.dur_s == 0.25
        assert span.attrs == {"exp": "a"}
        assert tracer.finished == [span]

    def test_ingest_reparents_orphans_and_rewrites_trace_id(self):
        worker = make_tracer(trace_id="worker-trace")
        with worker.span("child"):
            pass
        shipped = [s.to_dict() for s in worker.drain()]
        supervisor = make_tracer(trace_id="campaign-trace")
        accepted = supervisor.ingest(shipped, parent_id="attempt-span")
        assert accepted == 1
        (span,) = supervisor.finished
        assert span.trace_id == "campaign-trace"
        assert span.parent_id == "attempt-span"

    def test_ingest_skips_garbage_records(self):
        tracer = make_tracer()
        assert tracer.ingest([{"nope": 1}, "not a dict"]) == 0  # type: ignore[list-item]

    def test_buffer_bounded(self):
        tracer = make_tracer()
        tracer.MAX_BUFFER = 2
        for i in range(4):
            tracer.record(f"s{i}", t_wall=0.0, dur_s=0.0)
        assert len(tracer.finished) == 2
        assert tracer.dropped == 2

    def test_drain_clears(self):
        tracer = make_tracer()
        tracer.record("s", t_wall=0.0, dur_s=0.0)
        assert len(tracer.drain()) == 1
        assert tracer.drain() == []


class TestModuleApi:
    def test_span_is_noop_without_tracer(self):
        assert tracing.get_tracer() is None
        with tracing.span("anything") as span:
            assert span is None

    def test_traced_decorator_records_via_ambient_tracer(self):
        @tracing.traced("obs.test.fn")
        def fn(x):
            return x + 1

        assert fn(1) == 2  # no tracer: plain call
        tracer = tracing.configure(buffered=True)
        assert fn(2) == 3
        assert [s.name for s in tracer.finished] == ["obs.test.fn"]

    def test_shutdown_closes_writer_and_clears_tracer(self, tmp_path):
        writer = SpanWriter(tmp_path / "spans.jsonl")
        tracing.configure(writer=writer)
        tracing.shutdown()
        assert tracing.get_tracer() is None
        assert writer._fd is None


class TestSpanWriter:
    def test_writes_one_json_line_per_span(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with SpanWriter(path) as writer:
            writer.write(Span(name="a", trace_id="t", span_id="s1"))
            writer.write(Span(name="b", trace_id="t", span_id="s2", parent_id="s1"))
        spans = read_spans(path)
        assert [s.name for s in spans] == ["a", "b"]
        assert spans[1].parent_id == "s1"

    def test_truncates_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        intact = frame(
            SPANS_MAGIC, Span(name="old", trace_id="t", span_id="s0").to_dict()
        )
        path.write_bytes(intact + b'SPN1 {"torn": ')  # no trailing newline
        with SpanWriter(path) as writer:
            writer.write(Span(name="new", trace_id="t", span_id="s1"))
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 2
        assert [decode(line, SPANS_MAGIC)["name"] for line in lines] == [
            "old",
            "new",
        ]

    def test_write_failure_is_counted_not_raised(self, tmp_path):
        writer = SpanWriter(tmp_path / "spans.jsonl")
        import os

        os.close(writer._fd)  # sabotage the descriptor under the writer
        writer._fd = os.open(tmp_path / "spans.jsonl", os.O_RDONLY)
        writer.write(Span(name="a", trace_id="t", span_id="s"))
        assert writer.write_errors == 1
        writer.close()


class TestFiles:
    def test_read_spans_skips_torn_and_alien_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        good = frame(
            SPANS_MAGIC, Span(name="keep", trace_id="t", span_id="s").to_dict()
        )
        path.write_bytes(b'{"torn\n' + frame(SPANS_MAGIC, [1, 2]) + good)
        spans = read_spans(path)
        assert [s.name for s in spans] == ["keep"]

    def test_read_spans_missing_file(self, tmp_path):
        assert read_spans(tmp_path / "nope.jsonl") == []


class TestChromeTrace:
    def test_round_trip_preserves_identity_and_timing(self):
        spans = [
            Span(
                name="campaign.run",
                trace_id="t1",
                span_id="a",
                t_wall=100.0,
                dur_s=2.5,
                pid=42,
            ),
            Span(
                name="engine.attempt",
                trace_id="t1",
                span_id="b",
                parent_id="a",
                t_wall=100.5,
                dur_s=1.25,
                status="error",
                attrs={"experiment_id": "fig6"},
                pid=42,
            ),
        ]
        payload = to_chrome_trace(spans)
        assert payload["displayTimeUnit"] == "ms"
        assert all(e["ph"] == "X" for e in payload["traceEvents"])
        back = from_chrome_trace(payload)
        assert [s.to_dict() for s in back] == [s.to_dict() for s in spans]

    def test_round_trip_survives_json_serialization(self):
        spans = [Span(name="x", trace_id="t", span_id="s", t_wall=1.0, dur_s=0.5)]
        payload = json.loads(json.dumps(to_chrome_trace(spans)))
        assert [s.to_dict() for s in from_chrome_trace(payload)] == [
            s.to_dict() for s in spans
        ]

    def test_from_chrome_trace_ignores_foreign_events(self):
        payload = {
            "traceEvents": [
                {"ph": "M", "name": "metadata"},
                {"ph": "X", "name": "no-ids", "args": {}},
            ]
        }
        assert from_chrome_trace(payload) == []
