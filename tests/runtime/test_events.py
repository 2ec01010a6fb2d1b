"""Tests for the structured JSONL campaign event log."""

import threading

from repro.runtime.events import EVENTS_FILENAME, EVENTS_MAGIC, EventLog, read_events
from repro.runtime.records import decode

from tests.runtime.conftest import FakeClock


class TestEventLog:
    def test_records_have_seq_and_timestamps(self, tmp_path):
        mono = FakeClock(step=0.5)
        wall = FakeClock(step=1.0)
        with EventLog(tmp_path / EVENTS_FILENAME, clock=mono, wall_clock=wall) as log:
            first = log.emit("start", experiment_id="fig2", attempt=1)
            second = log.emit("finish", experiment_id="fig2", status="ok")
        assert first["seq"] == 1 and second["seq"] == 2
        assert second["t_mono"] > first["t_mono"] >= 0
        assert first["experiment_id"] == "fig2"
        assert first["attempt"] == 1

    def test_none_detail_fields_are_dropped(self, tmp_path):
        with EventLog(tmp_path / "e.jsonl") as log:
            record = log.emit("start", experiment_id=None, extra=None, kept=3)
        assert "experiment_id" not in record
        assert "extra" not in record
        assert record["kept"] == 3

    def test_lines_are_flushed_immediately(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventLog(path) as log:
            log.emit("start")
            # Readable before close: a killed supervisor loses nothing.
            assert read_events(path)[0]["event"] == "start"

    def test_read_skips_torn_trailing_line(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventLog(path) as log:
            log.emit("start")
            log.emit("finish")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "event": "tru')  # torn mid-write
        events = read_events(path)
        assert [e["event"] for e in events] == ["start", "finish"]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_events(tmp_path / "absent.jsonl") == []

    def test_concurrent_emitters_produce_a_total_order(self, tmp_path):
        path = tmp_path / "e.jsonl"
        log = EventLog(path)

        def spam(thread_index):
            for i in range(50):
                log.emit("tick", thread=thread_index, i=i)

        threads = [
            threading.Thread(target=spam, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.close()

        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 400
        records = [decode(line, EVENTS_MAGIC) for line in lines]  # every line intact
        seqs = [r["seq"] for r in records]
        assert sorted(seqs) == list(range(1, 401))


class TestResumeAppend:
    """A resumed supervisor appends to the same log without breaking
    the total order or welding onto a torn tail."""

    def test_seq_continues_across_generations(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        with EventLog(path) as log:
            log.emit("campaign-start")
            log.emit("attempt-start")
        with EventLog(path) as log:
            record = log.emit("resume")
        assert record["seq"] == 3
        seqs = [e["seq"] for e in read_events(path)]
        assert seqs == [1, 2, 3]

    def test_torn_tail_is_truncated_before_appending(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        with EventLog(path) as log:
            log.emit("campaign-start")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "event": "tor')  # killed mid-write
        with EventLog(path) as log:
            log.emit("resume")
        events = read_events(path)
        assert [e["event"] for e in events] == ["campaign-start", "resume"]
        assert [e["seq"] for e in events] == [1, 2]
        # Every line is intact — no welded torn/valid hybrid line.
        for line in path.read_bytes().splitlines(keepends=True):
            decode(line, EVENTS_MAGIC)

    def test_terminated_garbage_tail_is_also_dropped(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        with EventLog(path) as log:
            log.emit("campaign-start")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "event": "tor\n')  # torn, with newline
        with EventLog(path) as log:
            log.emit("resume")
        assert [e["seq"] for e in read_events(path)] == [1, 2]

    def test_fresh_log_still_starts_at_one(self, tmp_path):
        with EventLog(tmp_path / "new.jsonl") as log:
            assert log.emit("first")["seq"] == 1
