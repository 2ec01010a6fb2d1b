"""Tests for the write-ahead journal: framing, torn-tail discipline,
and crash recovery classification."""

from __future__ import annotations

import json
import threading

import pytest

from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.engine import ExperimentOutcome
from repro.runtime.errors import JournalCorruptError
from repro.runtime.journal import (
    JOURNAL_FILENAME,
    JOURNAL_MAGIC,
    Journal,
    attempt_uid,
    read_journal,
    recover,
    truncate_torn_tail,
)
from repro.runtime.records import frame

from tests.runtime.conftest import make_result


def committed_outcome(experiment_id: str) -> ExperimentOutcome:
    return ExperimentOutcome(
        experiment_id=experiment_id,
        status="ok",
        result=make_result(experiment_id),
        attempts=1,
    )


class TestFraming:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        with Journal(path, token=3) as journal:
            record = journal.append("campaign-start", experiments=["a"])
        replay = read_journal(path)
        assert replay.records == [record]
        assert record["seq"] == 1 and record["token"] == 3
        assert not replay.torn_tail and not replay.corrupt

    def test_lines_carry_magic_and_crc(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        with Journal(path) as journal:
            journal.append("campaign-start")
        line = path.read_bytes()
        assert line.startswith(JOURNAL_MAGIC.encode() + b" ")
        # Reframing the decoded payload reproduces the exact bytes.
        record = json.loads(line.split(b" ", 2)[2])
        assert frame(JOURNAL_MAGIC, record) == line

    def test_unknown_record_type_rejected(self, tmp_path):
        with Journal(tmp_path / JOURNAL_FILENAME) as journal:
            with pytest.raises(ValueError, match="unknown journal record"):
                journal.append("made-up-type")

    @pytest.mark.parametrize(
        "record_type",
        ["dispatch-assign", "cache-hit", "submission-accepted",
         "breaker-transition", "shard-sealed", "sim-checkpoint"],
    )
    def test_retired_record_types_rejected(self, tmp_path, record_type):
        with Journal(tmp_path / JOURNAL_FILENAME) as journal:
            with pytest.raises(ValueError, match="unknown journal record"):
                journal.append(record_type, experiment_id="x")

    def test_none_fields_are_dropped(self, tmp_path):
        with Journal(tmp_path / JOURNAL_FILENAME) as journal:
            record = journal.append("attempt-start", status=None, attempt=2)
        assert "status" not in record and record["attempt"] == 2

    def test_seq_continues_across_reopen(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        with Journal(path, token=1) as journal:
            journal.append("campaign-start")
            journal.append("summary-flushed", status="complete")
        with Journal(path, token=2) as journal:
            record = journal.append("recovered")
        assert record["seq"] == 3
        seqs = [r["seq"] for r in read_journal(path).records]
        assert seqs == [1, 2, 3]

    def test_attempt_uid_format(self):
        assert attempt_uid("fig2", 4, 2) == "fig2@4.2"

    def test_concurrent_emitters_produce_a_total_order(self, tmp_path):
        # Worker-pool supervisor threads journal worker kills while the
        # engine journals its own transitions: every record stays whole
        # and ``seq`` stays a total order.
        path = tmp_path / JOURNAL_FILENAME
        journal = Journal(path, token=1, fsync=False)

        def spam(thread_index):
            for i in range(50):
                journal.append(
                    "worker-killed", experiment_id=f"t{thread_index}",
                    attempt=i + 1,
                )

        threads = [
            threading.Thread(target=spam, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.close()

        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 400
        replay = read_journal(path)  # every line intact
        assert len(replay.records) == 400 and not replay.damaged
        seqs = [r["seq"] for r in replay.records]
        assert seqs == list(range(1, 401))


class TestReplayDamage:
    def make_journal(self, path, n=3):
        with Journal(path) as journal:
            for i in range(n):
                journal.append("attempt-start", experiment_id=f"e{i}", attempt=1)

    def test_unterminated_tail_is_torn_not_corrupt(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        self.make_journal(path)
        with open(path, "ab") as handle:
            handle.write(b"WAL1 0000")  # crash mid-append
        replay = read_journal(path)
        assert replay.torn_tail and not replay.corrupt
        assert len(replay.records) == 3

    def test_terminated_garbage_tail_is_still_torn(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        self.make_journal(path)
        with open(path, "ab") as handle:
            handle.write(b"WAL1 deadbeef {oops}\n")
        replay = read_journal(path)
        assert replay.torn_tail and not replay.corrupt

    def test_mid_file_damage_is_corruption(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        self.make_journal(path)
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF  # bit-flip inside the first record
        path.write_bytes(bytes(data))
        replay = read_journal(path)
        assert replay.corrupt and not replay.torn_tail
        assert len(replay.records) == 2  # the two undamaged records

    def test_truncate_drops_exactly_the_tail(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        self.make_journal(path)
        good = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"WAL1 12")
        assert truncate_torn_tail(path) == 7
        assert path.stat().st_size == good
        assert truncate_torn_tail(path) == 0  # idempotent

    def test_truncate_refuses_mid_file_corruption(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        self.make_journal(path)
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError, match="refusing to truncate"):
            truncate_torn_tail(path)

    def test_missing_file_replays_empty(self, tmp_path):
        replay = read_journal(tmp_path / "absent.wal")
        assert not replay.records and not replay.torn_tail
        assert truncate_torn_tail(tmp_path / "absent.wal") == 0

    def test_last_token_is_the_maximum(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        with Journal(path, token=1) as journal:
            journal.append("campaign-start")
            journal.token = 5
            journal.append("recovered")
        assert read_journal(path).last_token == 5


class TestRecover:
    def test_no_journal_means_no_report(self, tmp_path):
        assert recover(tmp_path) is None

    def test_committed_attempt_is_committed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_outcome(committed_outcome("figA"))
        with Journal(tmp_path / JOURNAL_FILENAME, token=1) as journal:
            journal.append(
                "attempt-start", experiment_id="figA", attempt=1,
                attempt_uid=attempt_uid("figA", 1, 1),
            )
            journal.append(
                "attempt-end", experiment_id="figA", status="ok",
                attempt_uid=attempt_uid("figA", 1, 1),
            )
        report = recover(tmp_path)
        assert report.committed == ["figA"]
        assert report.clean and report.last_token == 1

    def test_committed_without_checkpoint_is_lost(self, tmp_path):
        with Journal(tmp_path / JOURNAL_FILENAME, token=1) as journal:
            journal.append("attempt-end", experiment_id="figA", status="ok")
        report = recover(tmp_path)
        assert report.lost == ["figA"] and not report.committed
        assert any("missing or corrupt" in note for note in report.notes)

    def test_failed_attempt_end_never_commits(self, tmp_path):
        with Journal(tmp_path / JOURNAL_FILENAME, token=1) as journal:
            journal.append("attempt-end", experiment_id="figA", status="failed")
        report = recover(tmp_path)
        assert not report.committed and not report.lost and not report.in_doubt

    def test_open_attempt_is_in_doubt(self, tmp_path):
        with Journal(tmp_path / JOURNAL_FILENAME, token=1) as journal:
            journal.append("attempt-start", experiment_id="figA", attempt=1)
        report = recover(tmp_path)
        assert report.in_doubt == ["figA"] and not report.clean

    def test_in_doubt_promoted_by_flush_record(self, tmp_path):
        # Crash window: checkpoint renamed and flush journaled, but the
        # attempt-end append never happened.
        store = CheckpointStore(tmp_path)
        store.save_outcome(committed_outcome("figA"))
        with Journal(tmp_path / JOURNAL_FILENAME, token=1) as journal:
            journal.append("attempt-start", experiment_id="figA", attempt=1)
            journal.append(
                "checkpoint-flushed", experiment_id="figA", status="ok"
            )
        report = recover(tmp_path)
        assert report.committed == ["figA"] and not report.in_doubt
        assert any("promoted" in note for note in report.notes)

    def test_in_doubt_without_checkpoint_stays_in_doubt(self, tmp_path):
        # A flush record alone must not commit: the checkpoint itself
        # has to verify.
        with Journal(tmp_path / JOURNAL_FILENAME, token=1) as journal:
            journal.append("attempt-start", experiment_id="figA", attempt=1)
            journal.append(
                "checkpoint-flushed", experiment_id="figA", status="ok"
            )
        report = recover(tmp_path)
        assert report.in_doubt == ["figA"]

    def test_in_doubt_without_flush_record_stays_in_doubt(self, tmp_path):
        # A valid checkpoint with no checkpoint-flushed record: the
        # attempt never reached its first journaled commit step.
        store = CheckpointStore(tmp_path)
        store.save_outcome(committed_outcome("figA"))
        with Journal(tmp_path / JOURNAL_FILENAME, token=1) as journal:
            journal.append("attempt-start", experiment_id="figA", attempt=1)
        report = recover(tmp_path)
        assert report.in_doubt == ["figA"] and not report.committed

    def test_lifecycle_records_do_not_change_the_verdict(self, tmp_path):
        # Worker kills, oracle verdicts and store retries sit beside the
        # state transitions; recovery reads only the transitions.
        store = CheckpointStore(tmp_path)
        store.save_outcome(committed_outcome("figA"))
        with Journal(tmp_path / JOURNAL_FILENAME, token=1) as journal:
            journal.append("attempt-start", experiment_id="figA", attempt=1)
            journal.append(
                "worker-killed", experiment_id="figA", attempt=1,
                signal="SIGTERM",
            )
            journal.append("attempt-end", experiment_id="figA", status="failed")
            journal.append("attempt-start", experiment_id="figA", attempt=2)
            journal.append("validated", experiment_id="figA", attempt=2)
            journal.append(
                "checkpoint-retry", experiment_id="figA", flush_try=1
            )
            journal.append("checkpoint-flushed", experiment_id="figA", status="ok")
            journal.append("attempt-end", experiment_id="figA", status="ok")
        with Journal(tmp_path / JOURNAL_FILENAME, token=2) as journal:
            journal.append("resumed", experiment_id="figA")
        report = recover(tmp_path)
        assert report.committed == ["figA"] and report.clean

    def test_restart_supersedes_earlier_attempt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_outcome(committed_outcome("figA"))
        with Journal(tmp_path / JOURNAL_FILENAME, token=1) as journal:
            journal.append("attempt-start", experiment_id="figA", attempt=1)
            journal.append("attempt-end", experiment_id="figA", status="failed")
            journal.append("attempt-start", experiment_id="figA", attempt=2)
            journal.append("checkpoint-flushed", experiment_id="figA", status="ok")
            journal.append("attempt-end", experiment_id="figA", status="ok")
        report = recover(tmp_path)
        assert report.committed == ["figA"]

    def test_torn_tail_is_truncated_and_reported(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        with Journal(path, token=1) as journal:
            journal.append("campaign-start")
        with open(path, "ab") as handle:
            handle.write(b"WAL1 77")
        report = recover(tmp_path)
        assert report.torn_tail and report.truncated_bytes == 7
        assert not read_journal(path).torn_tail  # actually truncated

    def test_corrupt_journal_raises(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        with Journal(path, token=1) as journal:
            journal.append("campaign-start")
            journal.append("summary-flushed", status="complete")
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError):
            recover(tmp_path)

    def test_unjournaled_checkpoint_trusted_with_note(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_outcome(committed_outcome("figB"))
        with Journal(tmp_path / JOURNAL_FILENAME, token=1) as journal:
            journal.append("campaign-start")
        report = recover(tmp_path)
        assert report.committed == ["figB"]
        assert any("no journal record" in note for note in report.notes)

    def test_recover_is_idempotent(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_outcome(committed_outcome("figA"))
        with Journal(tmp_path / JOURNAL_FILENAME, token=1) as journal:
            journal.append("attempt-start", experiment_id="figA", attempt=1)
            journal.append("attempt-end", experiment_id="figA", status="ok")
            journal.append("attempt-start", experiment_id="figB", attempt=1)
        first = recover(tmp_path)
        second = recover(tmp_path)
        assert first.to_dict() == second.to_dict()
        assert second.committed == ["figA"] and second.in_doubt == ["figB"]

    def test_render_mentions_counts(self, tmp_path):
        with Journal(tmp_path / JOURNAL_FILENAME, token=1) as journal:
            journal.append("attempt-start", experiment_id="figA", attempt=1)
        text = recover(tmp_path).render()
        assert "in-doubt: 1" in text
