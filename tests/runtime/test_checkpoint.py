"""Tests for atomic, checksummed campaign checkpoints."""

import json
import os

import numpy as np
import pytest

from repro.core.curves import MissRateCurve
from repro.experiments.runner import ExperimentResult, SeriesComparison
from repro.runtime.checkpoint import CheckpointStore, atomic_write_text
from repro.runtime.engine import ExperimentOutcome
from repro.runtime.errors import CheckpointCorruptError, ExperimentFailure
from tests.harness.faulty import corrupt_file


def rich_result() -> ExperimentResult:
    result = ExperimentResult(experiment_id="fig2", title="LU miss rates")
    result.curves.append(
        MissRateCurve(
            np.array([64, 128, 256]),
            np.array([1.0, 0.5, 0.25]),
            metric="misses_per_flop",
            label="B=16",
        )
    )
    result.comparisons.append(
        SeriesComparison("lev2WS", 2200.0, 2304.0, "bytes", "close")
    )
    result.comparisons.append(SeriesComparison("qualitative", None, 3.0))
    result.tables["extra"] = "a | b"
    result.notes.append("a note")
    return result


def ok_outcome() -> ExperimentOutcome:
    return ExperimentOutcome(
        experiment_id="fig2",
        status="ok",
        result=rich_result(),
        attempts=1,
        elapsed_seconds=1.5,
    )


class TestResultSerialization:
    def test_round_trip_preserves_everything(self):
        original = rich_result()
        restored = ExperimentResult.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert restored.experiment_id == original.experiment_id
        assert restored.title == original.title
        assert restored.tables == original.tables
        assert restored.notes == original.notes
        assert len(restored.curves) == 1
        np.testing.assert_array_equal(
            restored.curves[0].capacities, original.curves[0].capacities
        )
        np.testing.assert_array_equal(
            restored.curves[0].miss_rates, original.curves[0].miss_rates
        )
        assert restored.curves[0].metric == "misses_per_flop"
        assert restored.comparisons[0].paper_value == 2200.0
        assert restored.comparisons[1].paper_value is None
        assert restored.render() == original.render()

    def test_outcome_round_trip_with_failures(self):
        outcome = ok_outcome()
        outcome.failures.append(
            ExperimentFailure(
                experiment_id="fig2",
                attempt=1,
                category="simulation",
                error_type="SimulationError",
                message="boom",
            )
        )
        restored = ExperimentOutcome.from_dict(
            json.loads(json.dumps(outcome.to_dict()))
        )
        assert restored.status == "ok"
        assert restored.result.render() == outcome.result.render()
        assert restored.failures[0].category == "simulation"


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "deep" / "file.json"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"

    def test_no_temp_droppings(self, tmp_path):
        path = tmp_path / "file.json"
        atomic_write_text(path, "hello")
        assert os.listdir(tmp_path) == ["file.json"]

    def test_overwrite_is_all_or_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "file.json"
        atomic_write_text(path, "original")

        def failing_replace(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            atomic_write_text(path, "replacement")
        monkeypatch.undo()
        assert path.read_text() == "original"
        assert os.listdir(tmp_path) == ["file.json"]


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.save_outcome(ok_outcome())
        loaded = store.load_outcome("fig2")
        assert loaded.status == "ok"
        assert loaded.result.comparison("lev2WS").measured_value == 2304.0

    def test_completed_ids(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        assert store.completed_ids() == []
        store.save_outcome(ok_outcome())
        assert store.completed_ids() == ["fig2"]
        assert store.has_result("fig2")
        assert not store.has_result("fig4")

    def test_bit_flip_detected(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        path = store.save_outcome(ok_outcome())
        text = path.read_text()
        # Flip a digit inside the payload (not the checksum header).
        corrupted = text.replace("2304.0", "9304.0")
        assert corrupted != text
        path.write_text(corrupted)
        with pytest.raises(CheckpointCorruptError, match="integrity"):
            store.load_outcome("fig2")
        assert not store.has_result("fig2")
        assert store.completed_ids() == []

    def test_truncated_file_detected(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        path = store.save_outcome(ok_outcome())
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CheckpointCorruptError):
            store.load_outcome("fig2")

    def test_non_json_detected(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        path = store.result_path("fig2")
        path.parent.mkdir(parents=True)
        path.write_text("not json at all")
        with pytest.raises(CheckpointCorruptError):
            store.load_outcome("fig2")

    def test_non_utf8_byte_detected(self, tmp_path):
        # A byte that is not UTF-8 must read as damage, so resume
        # re-runs the experiment instead of crashing on the decode.
        store = CheckpointStore(tmp_path / "run")
        path = store.save_outcome(ok_outcome())
        corrupt_file(path, offset=path.stat().st_size // 2)
        with pytest.raises(CheckpointCorruptError, match="cannot read"):
            store.load_outcome("fig2")
        assert store.completed_ids() == []

    def test_failure_records_are_not_checkpoints(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        failed = ExperimentOutcome(
            experiment_id="fig6", status="failed", attempts=3
        )
        store.save_failure(failed)
        assert store.completed_ids() == []
        assert store.failure_path("fig6").is_file()

    def test_manifest_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        assert store.read_manifest() is None
        store.write_manifest({"experiments": ["fig2"], "quick": True})
        assert store.read_manifest() == {"experiments": ["fig2"], "quick": True}

    def test_summary_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        assert store.read_summary() is None
        store.write_summary({"status": "interrupted", "completed": ["fig2"]})
        assert store.read_summary()["status"] == "interrupted"

    def test_verify_all_reports_damage(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.write_manifest({"experiments": ["fig2"]})
        store.save_outcome(ok_outcome())
        assert store.verify_all() == {}
        path = store.result_path("fig2")
        path.write_text(path.read_text().replace("2304.0", "9304.0"))
        problems = store.verify_all()
        assert list(problems) == ["results/fig2.json"]
        assert "integrity" in problems["results/fig2.json"]


class TestConcurrentWriters:
    """Satellite: checkpoint durability under concurrent writers.

    Multiple processes hammer the same run directory (shared summary,
    shared manifest, distinct and shared result ids); the file lock
    plus atomic write-rename must leave every envelope verifiable."""

    WRITER_SCRIPT = """
import sys
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.engine import ExperimentOutcome

run_dir, index = sys.argv[1], int(sys.argv[2])
store = CheckpointStore(run_dir)
for i in range(25):
    own = ExperimentOutcome(
        experiment_id=f"own-{index}-{i % 5}", status="ok", attempts=1
    )
    store.save_outcome(own)
    shared = ExperimentOutcome(
        experiment_id="shared", status="ok", attempts=index + 1
    )
    store.save_outcome(shared)
    store.write_summary({"status": "complete", "writer": index, "i": i})
    store.write_manifest({"experiments": ["shared"], "writer": index})
"""

    def test_parallel_processes_never_corrupt_the_store(self, tmp_path):
        import subprocess
        import sys as _sys

        run_dir = tmp_path / "run"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in _sys.path if p)
        writers = [
            subprocess.Popen(
                [_sys.executable, "-c", self.WRITER_SCRIPT, str(run_dir), str(i)],
                env=env,
                stderr=subprocess.PIPE,
                text=True,
            )
            for i in range(4)
        ]
        for writer in writers:
            _, stderr = writer.communicate(timeout=120)
            assert writer.returncode == 0, stderr

        store = CheckpointStore(run_dir)
        assert store.verify_all() == {}
        done = store.completed_ids()
        assert "shared" in done
        assert len(done) == 4 * 5 + 1
        # The survivors parse as exactly one writer's coherent payload.
        assert store.read_summary()["status"] == "complete"
        assert store.load_outcome("shared").attempts in (1, 2, 3, 4)
