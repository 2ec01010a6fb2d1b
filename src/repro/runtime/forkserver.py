"""The fork server that campaign workers are forked from.

Starting a worker as a fresh ``python`` costs the interpreter plus the
import of numpy and :mod:`repro` (~0.3 s), and a ``--quick`` campaign
paid that once per attempt.  A :class:`ForkServer` pays it once: it
starts one interpreter (``python -m repro.runtime.forkserver``) that
imports :data:`BASE_PRELOAD` and the campaign's runner modules, and then
does nothing but fork.  The server never runs experiment code, so every
forked worker starts from the same freshly imported state.  The
supervisor itself is never forked: it runs pool threads, and a fork of
a threaded process can inherit a lock some other thread held.  The
server is single-threaded.

Protocol, over one ``AF_UNIX`` stream socket per server:

- a spawn request is a 4-byte big-endian length, then a JSON object
  ``{"spec": <AttemptSpec JSON>, "env": {...}}``, sent together with
  three file descriptors: the write ends of the worker's *status*,
  *payload* and *stderr* pipes;
- the server forks.  The child starts its own session, takes stdin
  from ``/dev/null``, sends fd 2 to the stderr pipe, puts the payload
  pipe on fd 3, closes every other descriptor, replaces ``os.environ``
  with the request's ``env`` and calls
  :func:`repro.experiments.runner.worker_main`, which points fd 1 at
  stderr too;
- the server writes ``"<pid>\\n"`` to the status pipe at once, and
  ``"<returncode>\\n"`` (``Popen.returncode`` convention: negative for
  a signal) when it has reaped the worker;
- end of file on the socket stops the server: it SIGKILLs any worker
  still alive, reaps every one and exits.  The supervisor then reaps
  the server, so the workers' resource usage reaches its
  ``RUSAGE_CHILDREN``.

The supervisor side is :class:`ForkServer` (start, spawn, close) and
:class:`ForkedWorker`, a ``Popen``-like handle on one worker.
"""

from __future__ import annotations

import json
import os
import select
import selectors
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from importlib import import_module
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Modules every server imports: the worker entry point and what
#: :func:`~repro.experiments.runner.worker_main` imports per attempt.
BASE_PRELOAD = (
    "repro.experiments.runner",
    "repro.runtime.workers",
    "repro.runtime.budget",
    "repro.runtime.faults",
    "repro.runtime.journal",
    "repro.obs.timeline",
)

#: The fd a forked worker finds its payload pipe on.
PAYLOAD_FD = 3

#: How long :meth:`ForkServer.close` waits before SIGKILLing the server.
STOP_TIMEOUT_S = 5.0

_HEADER = struct.Struct("!I")


# -- supervisor side --------------------------------------------------------


class ForkedWorker:
    """A ``Popen``-like handle on one worker forked by a :class:`ForkServer`.

    One thread reads the worker (:meth:`communicate`); any thread may
    :meth:`poll`, :meth:`wait` for or signal it.
    """

    def __init__(
        self, pid: int, status_fd: int, payload_fd: int, stderr_fd: int,
        status: bytes = b"",
    ) -> None:
        self.pid = pid
        self.returncode: Optional[int] = None
        self._status_fd = status_fd
        self._payload_fd = payload_fd
        self._stderr_fd = stderr_fd
        self._chunks: Dict[int, List[bytes]] = {
            status_fd: [status], payload_fd: [], stderr_fd: [],
        }
        self._open = [status_fd, payload_fd, stderr_fd]
        self._reported = threading.Event()

    def poll(self) -> Optional[int]:
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        """Wait until the reading thread has seen the exit status."""
        self._reported.wait(timeout)
        return self.returncode

    def communicate(self, timeout: Optional[float] = None) -> Tuple[str, str]:
        """Read payload and stderr to EOF and collect the exit status.

        Raises ``subprocess.TimeoutExpired`` at ``timeout``; what was
        read so far is kept, so a later call carries on.  A worker
        whose status never arrived (the server died) is left with
        ``returncode`` None.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with selectors.DefaultSelector() as selector:
            for fd in self._open:
                selector.register(fd, selectors.EVENT_READ)
            while self._open:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise subprocess.TimeoutExpired(
                            f"worker {self.pid}", timeout
                        )
                for key, _ in selector.select(remaining):
                    data = os.read(key.fd, 65536)
                    if data:
                        self._chunks[key.fd].append(data)
                    else:
                        selector.unregister(key.fd)
                        os.close(key.fd)
                        self._open.remove(key.fd)
        status = b"".join(self._chunks[self._status_fd]).split()
        if status:
            self.returncode = int(status[0])
        self._reported.set()
        return (
            b"".join(self._chunks[self._payload_fd]).decode("utf-8", "replace"),
            b"".join(self._chunks[self._stderr_fd]).decode("utf-8", "replace"),
        )

    def send_signal(self, signum: int) -> None:
        """Signal the worker's process group (it leads its own session)."""
        if self.returncode is not None:
            return
        try:
            os.killpg(self.pid, signum)
        except OSError:
            # Not yet a group leader (signalled between fork and
            # setsid), or already gone.
            try:
                os.kill(self.pid, signum)
            except OSError:
                pass


class ForkServer:
    """One preloaded interpreter that forks workers on request.

    Starting it costs one interpreter start and the imports; every
    :meth:`spawn` after that is a fork.  :meth:`close` stops and reaps
    it, and must be called: an unreaped server hides its workers'
    memory use from the caller's ``RUSAGE_CHILDREN``.

    Args:
        preload: Modules to import on top of :data:`BASE_PRELOAD`.
        env: The server's environment (its ``PYTHONPATH`` decides what
            it can import).  Each worker gets the environment of its own
            spawn request instead.
    """

    def __init__(self, preload: Sequence[str], env: Mapping[str, str]) -> None:
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        modules = list(dict.fromkeys([*BASE_PRELOAD, *preload]))
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", __name__, str(theirs.fileno()), *modules],
                pass_fds=(theirs.fileno(),),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                env=dict(env),
                # Its own session: a terminal's Ctrl-C reaches only the
                # supervisor, which then stops the server itself.
                start_new_session=True,
            )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self._sock = ours
        self._send_lock = threading.Lock()

    @property
    def pid(self) -> int:
        return self._proc.pid

    def exited(self, timeout: float = 1.0) -> bool:
        """Has the server exited (waiting up to ``timeout`` seconds)?"""
        try:
            self._proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
        return True

    def spawn(self, spec_text: str, env: Mapping[str, str]) -> ForkedWorker:
        """Fork one worker for ``spec_text`` with environment ``env``."""
        body = json.dumps({"spec": spec_text, "env": dict(env)}).encode("utf-8")
        message = _HEADER.pack(len(body)) + body
        status_r, status_w = os.pipe()
        payload_r, payload_w = os.pipe()
        stderr_r, stderr_w = os.pipe()
        ours = [status_r, payload_r, stderr_r]
        try:
            try:
                with self._send_lock:
                    sent = socket.send_fds(
                        self._sock, [message], [status_w, payload_w, stderr_w]
                    )
                    self._sock.sendall(message[sent:])
            finally:
                for fd in (status_w, payload_w, stderr_w):
                    os.close(fd)
            status = b""
            while b"\n" not in status:
                data = os.read(status_r, 64)
                if not data:
                    raise ConnectionError(
                        f"fork server (pid {self.pid}) did not fork a "
                        f"worker (server exit status: {self._proc.poll()})"
                    )
                status += data
        except BaseException:
            for fd in ours:
                os.close(fd)
            raise
        pid, _, rest = status.partition(b"\n")
        return ForkedWorker(int(pid), status_r, payload_r, stderr_r, rest)

    def close(self) -> None:
        """Stop the server and reap it (it reaps its workers first)."""
        self._sock.close()
        try:
            self._proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


# -- server side ------------------------------------------------------------


def _recv_exact(sock: socket.socket, size: int, data: bytes = b"") -> Optional[bytes]:
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            return None
        data += chunk
    return data


def _recv_request(sock: socket.socket) -> Optional[Tuple[dict, List[int]]]:
    """One spawn request, or None at end of file."""
    head, fds, _, _ = socket.recv_fds(sock, _HEADER.size, 3)
    if not head:
        return None
    head = _recv_exact(sock, _HEADER.size, head)
    body = None if head is None else _recv_exact(sock, _HEADER.unpack(head)[0])
    if body is None or len(fds) != 3:
        for fd in fds:
            os.close(fd)
        return None
    return json.loads(body), fds


def _report(fd: int, value: int) -> None:
    try:
        os.write(fd, b"%d\n" % value)
    except OSError:
        pass  # the supervisor stopped listening


def _run_worker(request: dict, fds: List[int]) -> None:
    """The forked child: become a clean worker, run the attempt, exit."""
    code = 1
    try:
        os.setsid()
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        _, payload_fd, stderr_fd = fds
        null = os.open(os.devnull, os.O_RDONLY)
        os.dup2(null, 0)
        os.dup2(stderr_fd, 2)
        os.dup2(payload_fd, PAYLOAD_FD)
        os.closerange(PAYLOAD_FD + 1, os.sysconf("SC_OPEN_MAX"))
        os.environ.clear()
        os.environ.update(request["env"])
        from repro.experiments.runner import worker_main

        code = worker_main(request["spec"], PAYLOAD_FD)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except BaseException:  # noqa: BLE001 — the process boundary: report, exit 1
        import traceback

        traceback.print_exc()
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (OSError, ValueError):
                pass
        os._exit(code)


def _reap(live: Dict[int, int], block: bool) -> None:
    """Reap exited workers and report each one's return code."""
    while live:
        try:
            pid, status = os.waitpid(-1, 0 if block else os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
        fd = live.pop(pid, None)
        if fd is not None:
            _report(fd, os.waitstatus_to_exitcode(status))
            os.close(fd)


def serve(control_fd: int, preload: Sequence[str]) -> int:
    """The server loop: import ``preload``, then fork one worker per request."""
    for name in preload:
        try:
            import_module(name)
        except Exception:  # noqa: BLE001 — the worker re-imports and classifies it
            pass
    control = socket.socket(fileno=control_fd)
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_r, False)
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    live: Dict[int, int] = {}  # worker pid -> its status pipe
    try:
        while True:
            ready, _, _ = select.select([control, wake_r], [], [])
            if wake_r in ready:
                try:
                    while os.read(wake_r, 512):
                        pass
                except BlockingIOError:
                    pass
                _reap(live, block=False)
            if control in ready:
                request = _recv_request(control)
                if request is None:
                    return 0
                message, fds = request
                try:
                    pid = os.fork()
                except OSError:
                    pid = -1  # closing the fds tells the supervisor
                if pid == 0:
                    _run_worker(message, fds)
                status_fd, payload_fd, stderr_fd = fds
                os.close(payload_fd)
                os.close(stderr_fd)
                if pid < 0:
                    os.close(status_fd)
                    continue
                live[pid] = status_fd
                _report(status_fd, pid)
    finally:
        for pid in live:
            try:
                os.killpg(pid, signal.SIGKILL)
            except OSError:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        _reap(live, block=True)


if __name__ == "__main__":
    raise SystemExit(serve(int(sys.argv[1]), sys.argv[2:]))
