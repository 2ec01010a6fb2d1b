"""Tests for the supervisor's claim on a run directory: acquiring and
refusing ``supervisor.lock``, reclaiming a dead holder's directory, and
the supervisor generation (journal ``token``) a campaign runs under.

The generation is one more than the highest token already in the
journal, so every restart, crashed or clean, journals under a new one.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from repro.experiments.__main__ import main
from repro.runtime.journal import (
    JOURNAL_FILENAME,
    LOCK_FILENAME,
    Journal,
    lock_holder_pid,
    lock_run_dir,
    read_journal,
    run_dir_locked,
)

QUICK = ["--quick", "--jobs", "0", "table1"]

#: Takes the lock of the run directory in ``argv[1]``, reports it, and
#: exits without closing the fd: only the kernel drops the lock.
HOLD_AND_EXIT = (
    "import os, sys\n"
    "from repro.runtime.journal import lock_run_dir\n"
    "assert lock_run_dir(sys.argv[1]) is not None\n"
    "print('locked', flush=True)\n"
    "sys.stdin.readline()\n"
    "os._exit(0)\n"
)


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


def hold_then_exit(run_dir):
    """Run :data:`HOLD_AND_EXIT` against ``run_dir``; return its pid once
    it has held the lock and exited."""
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLD_AND_EXIT, str(run_dir)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=subprocess_env(),
    )
    try:
        assert holder.stdout.readline().strip() == "locked"
        assert run_dir_locked(run_dir)
        holder.stdin.write("\n")
        holder.stdin.flush()
        assert holder.wait(timeout=30) == 0
    finally:
        if holder.poll() is None:
            holder.kill()
            holder.wait(timeout=30)
        holder.stdin.close()
        holder.stdout.close()
    return holder.pid


def journal_tokens(run_dir):
    return [r["token"] for r in read_journal(run_dir / JOURNAL_FILENAME).records]


class TestAcquire:
    def test_fresh_acquire_gets_token_1(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main([*QUICK, "--run-dir", str(run_dir)]) == 0, (
            capsys.readouterr().out
        )
        assert set(journal_tokens(run_dir)) == {1}
        # Released on return; the file keeps the last holder's PID.
        assert not run_dir_locked(run_dir)
        assert lock_holder_pid(run_dir) == os.getpid()

    def test_token_floor_from_journal(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        with Journal(run_dir / JOURNAL_FILENAME, token=7) as journal:
            journal.append(
                "campaign-start", experiments=["table1"], quick=True, jobs=0
            )
        assert main([*QUICK, "--resume", str(run_dir)]) == 0, (
            capsys.readouterr().out
        )
        tokens = journal_tokens(run_dir)
        assert tokens[0] == 7 and set(tokens[1:]) == {8}

    def test_live_lease_is_refused(self, tmp_path):
        fd = lock_run_dir(tmp_path)
        assert fd is not None
        try:
            # A second open file is refused, even in the same process.
            assert lock_run_dir(tmp_path) is None
            assert run_dir_locked(tmp_path)
        finally:
            os.close(fd)
        fd = lock_run_dir(tmp_path)
        assert fd is not None
        os.close(fd)

    def test_dead_owner_is_reclaimed_with_bumped_token(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main([*QUICK, "--run-dir", str(run_dir)]) == 0
        dead_pid = hold_then_exit(run_dir)
        assert lock_holder_pid(run_dir) == dead_pid
        assert not run_dir_locked(run_dir)
        assert main([*QUICK, "--resume", str(run_dir)]) == 0, (
            capsys.readouterr().out
        )
        assert set(journal_tokens(run_dir)) == {1, 2}
        assert journal_tokens(run_dir)[-1] == 2
        assert lock_holder_pid(run_dir) == os.getpid()

    def test_undecodable_lease_treated_as_absent(self, tmp_path):
        (tmp_path / LOCK_FILENAME).write_text("{torn" * 100)
        (tmp_path / "supervisor.lease").write_text("{torn")
        assert lock_holder_pid(tmp_path) is None
        assert not run_dir_locked(tmp_path)
        fd = lock_run_dir(tmp_path)
        assert fd is not None
        try:
            # The holder's PID replaces every byte of the old content.
            assert (tmp_path / LOCK_FILENAME).read_text() == f"{os.getpid()}\n"
        finally:
            os.close(fd)


class TestClockSkew:
    def test_dead_pid_reclaims_without_dwell(self, tmp_path):
        hold_then_exit(tmp_path)
        # A lock file stamped far in the future changes nothing: the
        # lock reads no clock.
        future = time.time() + 10 * 24 * 3600
        os.utime(tmp_path / LOCK_FILENAME, (future, future))
        started = time.monotonic()
        fd = lock_run_dir(tmp_path)
        assert fd is not None
        os.close(fd)
        assert time.monotonic() - started < 1.0


class TestStaleness:
    def test_dead_pid_is_stale(self, tmp_path):
        proc = subprocess.Popen(["true"])
        proc.wait()
        (tmp_path / LOCK_FILENAME).write_text(f"{proc.pid}\n")
        # The file still names the dead holder, but nothing holds the lock.
        assert lock_holder_pid(tmp_path) == proc.pid
        assert not run_dir_locked(tmp_path)
