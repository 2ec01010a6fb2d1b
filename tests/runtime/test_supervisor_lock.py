"""The run directory's supervisor lock (``supervisor.lock``).

One exclusive ``flock`` per run directory: a second supervisor is
refused, the kernel drops the lock of a dead holder, and the lock fd
never leaks into the fork server or its workers.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

from repro.experiments.__main__ import main
from repro.runtime.forkserver import ForkServer
from repro.runtime.journal import (
    JOURNAL_FILENAME,
    LOCK_FILENAME,
    lock_holder_pid,
    lock_run_dir,
    read_journal,
    run_dir_locked,
)
from repro.runtime.workers import worker_environment


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


class TestLock:
    def test_second_holder_is_refused_until_release(self, tmp_path):
        run_dir = tmp_path / "run"
        fd = lock_run_dir(run_dir)
        assert fd is not None and not os.get_inheritable(fd)
        try:
            assert lock_run_dir(run_dir) is None
            assert run_dir_locked(run_dir)
            assert lock_holder_pid(run_dir) == os.getpid()
        finally:
            os.close(fd)
        assert not run_dir_locked(run_dir)
        fd = lock_run_dir(run_dir)
        assert fd is not None
        os.close(fd)
        # The file stays: unlinking it could split one run directory
        # between two lock files.
        assert (run_dir / LOCK_FILENAME).is_file()

    def test_missing_or_empty_lock_file(self, tmp_path):
        assert not run_dir_locked(tmp_path)
        assert lock_holder_pid(tmp_path) is None
        (tmp_path / LOCK_FILENAME).write_text("")
        assert not run_dir_locked(tmp_path)
        assert lock_holder_pid(tmp_path) is None


class TestCrash:
    def test_sigkilled_holder_frees_the_run_dir_at_once(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        holder = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys, time\n"
                "from repro.runtime.journal import lock_run_dir\n"
                "assert lock_run_dir(sys.argv[1]) is not None\n"
                "print('locked', flush=True)\n"
                "time.sleep(120)\n",
                str(run_dir),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=subprocess_env(),
        )
        try:
            assert holder.stdout.readline().strip() == "locked"
            assert run_dir_locked(run_dir)
            assert lock_holder_pid(run_dir) == holder.pid
        finally:
            holder.send_signal(signal.SIGKILL)
            holder.wait(timeout=30)
            holder.stdout.close()
        started = time.monotonic()
        code = main(
            ["--quick", "--jobs", "0", "--run-dir", str(run_dir), "table1"]
        )
        assert code == 0, capsys.readouterr().out
        # No TTL or dwell to sit out: the kernel released the lock.
        assert time.monotonic() - started < 30.0
        replay = read_journal(run_dir / JOURNAL_FILENAME)
        assert {r["token"] for r in replay.records} == {1}


class TestInheritance:
    def test_fork_server_does_not_keep_the_lock(self, tmp_path):
        run_dir = tmp_path / "run"
        fd = lock_run_dir(run_dir)
        server = ForkServer(preload=(), env=worker_environment())
        try:
            os.close(fd)
            assert not server.exited(timeout=0.0)
            fresh = lock_run_dir(run_dir)
            assert fresh is not None
            os.close(fresh)
        finally:
            server.close()
