"""Tests for the console logger."""

from __future__ import annotations

from repro.obs import console
from repro.obs.console import Console


class TestLevels:
    def test_info_goes_to_stdout(self, capsys):
        console.info("progress line")
        captured = capsys.readouterr()
        assert captured.out == "progress line\n"
        assert captured.err == ""

    def test_warning_and_error_go_to_stderr(self, capsys):
        console.warning("careful")
        console.error("broken")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "careful\nbroken\n"


class TestQuiet:
    def test_quiet_suppresses_progress_not_warnings(self, capsys):
        console.set_quiet(True)
        console.info("progress")
        console.warning("still visible")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "still visible\n"

    def test_unquiet_restores_progress(self, capsys):
        console.set_quiet(True)
        console.set_quiet(False)
        console.info("back on")
        assert capsys.readouterr().out == "back on\n"


class TestEnvironment:
    def test_env_level_is_ignored(self, monkeypatch, capsys):
        """``--quiet`` is the one verbosity switch: the retired
        ``REPRO_LOG_LEVEL`` variable no longer silences progress."""
        monkeypatch.setenv("REPRO_LOG_LEVEL", "warning")
        Console().info("progress")
        assert capsys.readouterr().out == "progress\n"
