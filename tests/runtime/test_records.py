"""Tests for the one framed record log (repro.runtime.records): the
codec, the damage rule, and every log writer built on it."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.mem.shards import SIMCKPT_MAGIC
from repro.obs.archive import ARCHIVE_MAGIC, append_rows
from repro.obs.timeline import TIMELINE_MAGIC, TimelineRecorder
from repro.obs.tracing import SPANS_MAGIC, Span, SpanWriter
from repro.runtime import records
from repro.runtime.events import EVENTS_MAGIC, EventLog
from repro.runtime.journal import JOURNAL_MAGIC, Journal
from repro.validate import artifacts

from tests.harness.fuzz import MUTATIONS

ATTRIBUTION = {
    "git_sha": "a" * 40,
    "timestamp": "2026-08-08T12:00:00+0000",
    "hostname": "testhost",
}


def _append_journal(path, n):
    with Journal(path) as journal:
        for i in range(n):
            journal.append("shard-sealed", shard=i)


def _append_events(path, n):
    with EventLog(path) as log:
        for i in range(n):
            log.emit("tick", i=i)


def _append_spans(path, n):
    with SpanWriter(path) as writer:
        for i in range(n):
            writer.write(Span(name="s", trace_id="t", span_id=f"s{i}", pid=1))
        assert writer.write_errors == 0


def _append_timeline(path, n):
    recorder = TimelineRecorder(path)
    for i in range(n):
        assert recorder.record("stackdist", refs=4096, counted=4096, ws_blocks=i)
    recorder.close()


def _append_archive(path, n):
    append_rows(
        path,
        [
            {"v": 1, "kind": "bench", "series": "bench:x", **ATTRIBUTION}
            for _ in range(n)
        ],
    )


def _append_snapshots(path, n):
    with records.RecordLog(path, SIMCKPT_MAGIC, "simckpt") as log:
        for i in range(n):
            log.append({"next_shard": i, "state": {}})


#: magic -> (file name, appender).  The five append-only logs use their
#: real writers; simulator snapshots are written whole, so the shared
#: appender stands in for them.
APPENDERS = {
    JOURNAL_MAGIC: ("shards.wal", _append_journal),
    EVENTS_MAGIC: ("events.jsonl", _append_events),
    SPANS_MAGIC: ("spans.jsonl", _append_spans),
    TIMELINE_MAGIC: ("timeline.jsonl", _append_timeline),
    ARCHIVE_MAGIC: ("perf-archive.jsonl", _append_archive),
    SIMCKPT_MAGIC: ("abc.ckpt", _append_snapshots),
}

#: magic -> (validator, torn-tail code, damage code) for the five logs
#: a run directory validates.
VALIDATORS = {
    JOURNAL_MAGIC: (
        artifacts.validate_journal_file, "journal-torn", "journal-corrupt"
    ),
    EVENTS_MAGIC: (artifacts.validate_events_file, "events-torn", "events-torn"),
    SPANS_MAGIC: (artifacts.validate_spans_file, "spans-torn", "spans-torn"),
    TIMELINE_MAGIC: (
        artifacts.validate_timeline_file, "timeline-torn", "timeline-torn"
    ),
    ARCHIVE_MAGIC: (
        artifacts.validate_archive_file, "archive-corrupt", "archive-corrupt"
    ),
}


def _fragment(magic):
    """The first half of a framed line: what a killed writer leaves."""
    line = records.frame(magic, {"seq": 99, "torn": "x" * 40})
    return line[: len(line) // 2]


class TestCodec:
    def test_frame_is_magic_crc_and_canonical_json(self):
        line = records.frame("TST1", {"b": 1, "a": [1, 2]})
        assert line.startswith(b"TST1 ") and line.endswith(b'{"a":[1,2],"b":1}\n')
        assert records.decode(line, "TST1") == {"a": [1, 2], "b": 1}

    @pytest.mark.parametrize(
        "line, reason",
        [
            (b'TST1 00000000 {"a":1}', "no terminating newline"),
            (b'XXX1 00000000 {"a":1}\n', "bad framing"),
            (b"TST1\n", "bad framing"),
            (b'TST1 00000000 {"a":1}\n', "CRC mismatch"),
            (records.frame("TST1", [1])[:-1] + b"\n", "not a JSON object"),
        ],
    )
    def test_decode_names_the_defect(self, line, reason):
        with pytest.raises(ValueError, match=reason):
            records.decode(line, "TST1")

    def test_crc_field_must_be_the_exact_hex(self):
        line = records.frame("TST1", {"a": 1})
        crc = line.split(b" ")[1]
        # ``int(..., 16)`` would accept these; the frame does not.
        for variant in (crc.upper(), b"0x" + crc[2:], crc[:1] + b"_" + crc[2:]):
            if variant != crc:
                with pytest.raises(ValueError):
                    records.decode(line.replace(crc, variant, 1), "TST1")

    def test_missing_file_scans_empty(self, tmp_path):
        found = records.scan(tmp_path / "absent", "TST1")
        assert found == records.Scan()
        assert records.truncate_torn_tail(tmp_path / "absent", "TST1", "t") == 0


class TestDamageRule:
    def _log(self, path, n=3):
        path.write_bytes(
            b"".join(records.frame("TST1", {"seq": i}) for i in range(n))
        )
        return path.read_bytes()

    @pytest.mark.parametrize("terminated", [False, True])
    def test_one_damaged_final_line_is_the_torn_tail(self, tmp_path, terminated):
        path = tmp_path / "log"
        good = self._log(path)
        path.write_bytes(good + b"TST1 garbage" + (b"\n" if terminated else b""))
        found = records.scan(path, "TST1")
        assert found.torn_tail and not found.damaged
        assert found.good_bytes == len(good) and len(found.records) == 3
        assert records.truncate_torn_tail(path, "TST1", "t") > 0
        assert path.read_bytes() == good

    def test_two_damaged_final_lines_are_damage(self, tmp_path):
        path = tmp_path / "log"
        good = self._log(path)
        path.write_bytes(good + b"junk\nmore junk")
        found = records.scan(path, "TST1")
        assert not found.torn_tail
        assert [line for line, _ in found.damaged] == [4, 5]
        assert records.truncate_torn_tail(path, "TST1", "t") == 0
        assert path.read_bytes() == good + b"junk\nmore junk"

    def test_damage_before_an_intact_record_is_never_truncated(self, tmp_path):
        path = tmp_path / "log"
        good = self._log(path)
        data = good[:5] + b"X" + good[6:]  # break the first line's CRC
        path.write_bytes(data)
        found = records.scan(path, "TST1")
        assert not found.torn_tail and found.damaged[0][0] == 1
        assert records.truncate_torn_tail(path, "TST1", "t") == 0
        assert path.read_bytes() == data

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("seed", range(8))
    def test_scan_and_truncation_agree(self, tmp_path, mutation, seed):
        """The forward scan and the appenders' backward walk draw the
        same line: truncation drops exactly the scan's torn tail."""
        path = tmp_path / "log"
        good = self._log(path, n=6)
        rng = np.random.default_rng(seed)
        path.write_bytes(MUTATIONS[mutation](good, rng))
        before = records.scan(path, "TST1")
        dropped = records.truncate_torn_tail(path, "TST1", "t")
        after = records.scan(path, "TST1")
        assert (dropped > 0) == before.torn_tail
        assert after.records == before.records
        assert after.damaged == before.damaged
        assert not after.torn_tail
        if before.torn_tail:
            assert path.stat().st_size == before.good_bytes

    def test_concurrent_appenders_keep_every_record_whole(self, tmp_path):
        path = tmp_path / "log"
        logs = [records.RecordLog(path, "TST1", "t") for _ in range(4)]

        def spam(index):
            for i in range(100):
                logs[index].append({"writer": index, "i": i, "pad": "p" * 500})

        threads = [threading.Thread(target=spam, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for log in logs:
            log.close()
        found = records.scan(path, "TST1")
        assert len(found.records) == 400 and not found.damaged


class TestAppendersRepairTheTornTail:
    """Every appender truncates a killed writer's fragment before its
    first record, so the fragment never welds onto a new record."""

    @pytest.mark.parametrize("terminated", [False, True])
    @pytest.mark.parametrize("magic", sorted(APPENDERS))
    def test_reopen_after_torn_fragment(self, tmp_path, magic, terminated):
        name, append = APPENDERS[magic]
        path = tmp_path / name
        append(path, 2)
        with open(path, "ab") as handle:
            handle.write(_fragment(magic) + (b"\n" if terminated else b""))
        append(path, 1)
        found = records.scan(path, magic)
        assert len(found.records) == 3
        assert not found.damaged and not found.torn_tail

    def test_sequenced_logs_continue_after_the_torn_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _append_events(path, 2)
        with open(path, "ab") as handle:
            handle.write(_fragment(EVENTS_MAGIC))
        with EventLog(path) as log:
            assert log.emit("resume")["seq"] == 3

    def test_append_after_a_failed_write_drops_its_torn_bytes(self, tmp_path):
        from tests.harness.iofault import IOFault, IOFaultInjector, install

        path = tmp_path / "log"
        injector = IOFaultInjector([IOFault("t", "write", "short-write", nth=2)])
        with records.RecordLog(path, "TST1", "t") as log, install(injector):
            log.append({"i": 0})
            with pytest.raises(OSError):
                log.append({"i": 1})
            log.append({"i": 2})
        found = records.scan(path, "TST1")
        assert found.records == [{"i": 0}, {"i": 2}]
        assert not found.damaged and not found.torn_tail


class TestOneVerdictPerCrashSignature:
    """The same damage gets the same verdict in every log."""

    @pytest.mark.parametrize("terminated", [False, True])
    @pytest.mark.parametrize("magic", sorted(VALIDATORS))
    def test_damaged_last_line_warns_and_is_truncated(
        self, tmp_path, magic, terminated
    ):
        name, append = APPENDERS[magic]
        validate, torn_code, _ = VALIDATORS[magic]
        path = tmp_path / name
        append(path, 2)
        with open(path, "ab") as handle:
            handle.write(_fragment(magic) + (b"\n" if terminated else b""))
        report = validate(path)
        assert report.ok, report.render()
        assert [(f.code, f.severity) for f in report.findings] == [
            (torn_code, "warning")
        ]
        append(path, 1)
        assert validate(path).findings == []

    @pytest.mark.parametrize("magic", sorted(VALIDATORS))
    def test_damage_before_an_intact_record_is_an_error(self, tmp_path, magic):
        name, append = APPENDERS[magic]
        validate, _, damage_code = VALIDATORS[magic]
        path = tmp_path / name
        append(path, 2)
        data = path.read_bytes()
        crc = data.index(b" ") + 1
        path.write_bytes(data[:crc] + b"g" + data[crc + 1 :])  # line 1 only
        damaged = path.read_bytes()
        report = validate(path)
        assert not report.ok
        assert [(f.code, f.severity) for f in report.findings] == [
            (damage_code, "error")
        ]
        append(path, 1)
        assert path.read_bytes().startswith(damaged)
        assert len(records.scan(path, magic).damaged) == 1

    @pytest.mark.parametrize(
        "magic, code", [(EVENTS_MAGIC, "events-torn"), (SPANS_MAGIC, "spans-torn")]
    )
    def test_plain_json_log_of_two_lines_is_kept_and_flagged(
        self, tmp_path, magic, code
    ):
        """A pre-frame ``events.jsonl``/``spans.jsonl`` is not a torn
        tail: the new writers append after it and never truncate it."""
        name, append = APPENDERS[magic]
        path = tmp_path / name
        plain = b'{"seq": 1, "event": "a"}\n{"seq": 2, "event": "b"}\n'
        path.write_bytes(plain)
        validate = VALIDATORS[magic][0]
        report = validate(path)
        assert not report.ok
        assert {(f.code, f.severity) for f in report.findings} == {
            (code, "error")
        }
        append(path, 1)
        assert path.read_bytes().startswith(plain)
        assert len(records.scan(path, magic).records) == 1
