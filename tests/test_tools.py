"""Tests for the trace CLI utilities."""

import pytest

from repro.mem.tracefile import save_trace
from repro.tools import main
from tests.conftest import random_trace
from tests.harness.builder import ReferenceBuilder


@pytest.fixture
def saved_trace(tmp_path):
    builder = ReferenceBuilder()
    for _ in range(4):
        builder.read_range(0, 64)
    path = tmp_path / "loop.npz"
    save_trace(path, builder.build(), metadata={"app": "demo", "n": 64})
    return str(path)


class TestInfo:
    def test_prints_summary(self, saved_trace, capsys):
        assert main(["info", saved_trace]) == 0
        out = capsys.readouterr().out
        assert "256" in out  # reference count
        assert "app: demo" in out

    def test_no_metadata(self, tmp_path, capsys):
        path = tmp_path / "t.npz"
        save_trace(path, random_trace(10, 10))
        assert main(["info", str(path)]) == 0
        assert "\n  metadata:" not in capsys.readouterr().out


class TestProfile:
    def test_prints_curve_and_knee(self, saved_trace, capsys):
        assert main(["profile", saved_trace, "--max-cache", "4KB",
                     "--warmup-fraction", "0"]) == 0
        out = capsys.readouterr().out
        assert "knee" in out
        assert "compulsory floor" in out

    def test_reads_only_flag(self, saved_trace, capsys):
        assert main(["profile", saved_trace, "--reads-only"]) == 0
        assert "miss rate" in capsys.readouterr().out

    def test_no_knees_message(self, tmp_path, capsys):
        path = tmp_path / "stream.npz"
        save_trace(path, random_trace(200, 10_000, seed=1))
        assert main(["profile", str(path), "--warmup-fraction", "0",
                     "--max-cache", "2KB"]) == 0
        out = capsys.readouterr().out
        assert "knees" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])
