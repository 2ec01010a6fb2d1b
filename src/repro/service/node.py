"""Worker node process: one host's share of the dispatch fabric.

``python -m repro.service.node --connect 127.0.0.1:PORT --node-id
node-0 --node-token 1`` dials the dispatcher
(:mod:`repro.service.dispatch`), introduces itself with its node id and
incarnation token, and then serves assignments: each ``assign`` message
carries a full :class:`~repro.runtime.workers.AttemptSpec`, which the
node runs under its *own* :class:`~repro.runtime.workers.WorkerSupervisor`
(hard deadline, TERM→KILL escalation, memory guard — the same
containment a single-host campaign gets).  The classified outcome is
shipped back as a ``result`` message stamped with the node token and
the spec's engine fencing token; all fencing *decisions* live at the
dispatcher, which knows the current incarnations.

The node's contract under failure is deliberately simple:

- ``fenced`` from the dispatcher means this incarnation has been
  superseded — kill any live workers and exit with status 3.
- EOF on the dispatcher socket means the dispatcher is gone — exit 0
  (workers are killed; an orphaned node must not keep computing).
- ``shutdown`` is the graceful version of the same.

Chaos injection: the ``REPRO_NODE_FAULT`` environment variable carries
comma-separated, incarnation-qualified directives —

- ``node-1#1:kill@2.5`` — 2.5 s after start, incarnation 1 of node-1
  SIGKILLs itself (mid-heartbeat, mid-attempt, wherever the timer
  lands).
- ``node-2#1:partition@1.0+3.0`` — at t=1.0 s the node's *sender* is
  muted for 3.0 s: heartbeats and results are buffered, not dropped,
  and flushed when the partition heals.  The dispatcher will have
  declared the node dead (heartbeat TTL) and respawned incarnation 2
  by then, so the flushed backlog exercises exactly the stale-token
  rejection path — the node is fenced and exits 3.

Directives are qualified by ``node_id#token`` so a respawned
incarnation does not re-arm its predecessor's fault.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.runtime.errors import ExperimentFailure, WorkerCrashError
from repro.runtime.workers import AttemptSpec, WorkerSupervisor
from repro.service.dispatch import NODE_FAULT_ENV

#: Exit status when the dispatcher fences this incarnation out.
EXIT_FENCED = 3

#: How long the node retries its initial dial (the dispatcher's
#: listener is up before spawn, so this only covers scheduler lag).
CONNECT_RETRY_SECONDS = 10.0


@dataclass
class FaultDirective:
    """One parsed ``REPRO_NODE_FAULT`` directive for this incarnation."""

    kind: str  # "kill" | "partition"
    at_seconds: float
    duration_seconds: float = 0.0


def parse_fault_directives(
    value: Optional[str], node_id: str, node_token: int
) -> List[FaultDirective]:
    """Parse the directives addressed to ``node_id#node_token``.

    Malformed entries are ignored (chaos tooling composes the variable;
    a typo must not change healthy-path behaviour), as are entries
    addressed to other nodes or other incarnations.
    """
    directives: List[FaultDirective] = []
    if not value:
        return directives
    me = f"{node_id}#{node_token}"
    for entry in value.split(","):
        entry = entry.strip()
        if not entry:
            continue
        target, _, action = entry.partition(":")
        if target.strip() != me or not action:
            continue
        kind, _, timing = action.partition("@")
        kind = kind.strip()
        try:
            if kind == "kill":
                directives.append(
                    FaultDirective(kind="kill", at_seconds=float(timing))
                )
            elif kind == "partition":
                at_text, _, dur_text = timing.partition("+")
                directives.append(
                    FaultDirective(
                        kind="partition",
                        at_seconds=float(at_text),
                        duration_seconds=float(dur_text),
                    )
                )
        except ValueError:
            continue
    return directives


class LineSender:
    """Line-framed JSON sender with a chaos mute switch.

    While muted (a simulated network partition), messages are buffered
    in order instead of sent; :meth:`heal` flushes the backlog.  That
    is the interesting half of a partition: the peer is silent for the
    TTL *and then the old traffic arrives anyway*.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._lock = threading.Lock()
        self._muted = False
        self._backlog: List[bytes] = []

    def send(self, message: Dict[str, object]) -> bool:
        data = (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            if self._muted:
                self._backlog.append(data)
                return True
            try:
                self._sock.sendall(data)
            except OSError:
                return False
        return True

    def mute(self) -> None:
        with self._lock:
            self._muted = True

    def heal(self) -> bool:
        with self._lock:
            self._muted = False
            backlog, self._backlog = self._backlog, []
            try:
                for data in backlog:
                    self._sock.sendall(data)
            except OSError:
                return False
        return True


class _Assignment:
    def __init__(self, assignment_id: str, spec: AttemptSpec) -> None:
        self.assignment_id = assignment_id
        self.spec = spec
        self.cancelled = False
        self.obs: Optional[Dict[str, object]] = None


class Node:
    """The node's event loop: hello, heartbeats, assignments, fencing."""

    def __init__(
        self,
        node_id: str,
        node_token: int,
        host: str,
        port: int,
        heartbeat_interval: float = 0.5,
    ) -> None:
        self.node_id = node_id
        self.node_token = node_token
        self.host = host
        self.port = port
        self.heartbeat_interval = heartbeat_interval
        self.sender: Optional[LineSender] = None
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._assignments: Dict[str, _Assignment] = {}
        self._supervisors: Dict[str, WorkerSupervisor] = {}
        self._stop = threading.Event()
        self._exit_status = 0
        self._timers: List[threading.Timer] = []

    # -- connection ----------------------------------------------------

    def _connect(self) -> socket.socket:
        deadline = time.monotonic() + CONNECT_RETRY_SECONDS
        last_error: Optional[OSError] = None
        while time.monotonic() < deadline:
            try:
                return socket.create_connection((self.host, self.port), timeout=5.0)
            except OSError as exc:
                last_error = exc
                time.sleep(0.1)
        raise SystemExit(
            f"node {self.node_id}: cannot reach dispatcher at "
            f"{self.host}:{self.port} ({last_error})"
        )

    def _arm_faults(self) -> None:
        directives = parse_fault_directives(
            os.environ.get(NODE_FAULT_ENV), self.node_id, self.node_token
        )
        for directive in directives:
            if directive.kind == "kill":
                timer = threading.Timer(directive.at_seconds, self._chaos_kill)
                timer.daemon = True
                timer.start()
                self._timers.append(timer)
            elif directive.kind == "partition":
                start = threading.Timer(directive.at_seconds, self.sender.mute)
                heal = threading.Timer(
                    directive.at_seconds + directive.duration_seconds,
                    self.sender.heal,
                )
                for timer in (start, heal):
                    timer.daemon = True
                    timer.start()
                    self._timers.append(timer)

    @staticmethod
    def _chaos_kill() -> None:
        # SIGKILL to ourselves: no cleanup, no flush — the genuine
        # article.  (Live workers are orphaned exactly as a real node
        # crash would orphan them; their hard deadlines still apply.)
        os.kill(os.getpid(), signal.SIGKILL)

    # -- heartbeats ----------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            with self._lock:
                inflight = len(self._assignments)
            self.sender.send(
                {
                    "type": "heartbeat",
                    "node_id": self.node_id,
                    "node_token": self.node_token,
                    "inflight": inflight,
                }
            )

    # -- assignment execution -----------------------------------------

    def _handle_assign(self, message: Dict[str, object]) -> None:
        assignment_id = str(message.get("assignment_id", ""))
        try:
            spec = AttemptSpec.from_json(json.dumps(message.get("spec")))
        except (TypeError, ValueError, KeyError) as exc:
            self.sender.send(
                {
                    "type": "result",
                    "node_id": self.node_id,
                    "node_token": self.node_token,
                    "assignment_id": assignment_id,
                    "engine_token": 0,
                    "failure": ExperimentFailure(
                        experiment_id=str(
                            (message.get("spec") or {}).get(
                                "experiment_id", "<unknown>"
                            )
                        ),
                        attempt=1,
                        category=WorkerCrashError.category,
                        error_type=WorkerCrashError.__name__,
                        message=f"node could not decode assignment spec: {exc}",
                    ).to_dict(),
                }
            )
            return
        assignment = _Assignment(assignment_id, spec)
        hard_timeout = message.get("hard_timeout_seconds")
        term_grace = message.get("term_grace_seconds", 5.0)
        with self._lock:
            self._assignments[assignment_id] = assignment
        thread = threading.Thread(
            target=self._execute,
            args=(assignment, hard_timeout, float(term_grace)),
            name=f"assign-{assignment_id}",
            daemon=True,
        )
        thread.start()

    def _execute(
        self,
        assignment: _Assignment,
        hard_timeout: Optional[float],
        term_grace: float,
    ) -> None:
        spec = assignment.spec

        def capture_obs(obs_spec: AttemptSpec, obs: Dict[str, object]) -> None:
            assignment.obs = obs

        supervisor = WorkerSupervisor(
            hard_timeout_seconds=hard_timeout,
            term_grace_seconds=term_grace,
            current_token=None,  # the dispatcher holds the live token
            obs_sink=capture_obs,
        )
        with self._lock:
            self._supervisors[assignment.assignment_id] = supervisor
        result: Optional[object] = None
        failure: Optional[ExperimentFailure] = None
        try:
            result, failure = supervisor.run_attempt(spec)
        except BaseException as exc:  # noqa: BLE001 — node must survive
            failure = ExperimentFailure(
                experiment_id=spec.experiment_id,
                attempt=spec.attempt,
                category=WorkerCrashError.category,
                error_type=WorkerCrashError.__name__,
                message=(
                    f"node-side supervisor failed for {spec.experiment_id}: "
                    f"{type(exc).__name__}: {exc}"
                ),
                degraded=spec.degraded,
            )
        finally:
            with self._lock:
                self._supervisors.pop(assignment.assignment_id, None)
                self._assignments.pop(assignment.assignment_id, None)
                cancelled = assignment.cancelled
            supervisor.close()
        if cancelled:
            return  # the dispatcher already moved on; don't even bother
        self.sender.send(
            {
                "type": "result",
                "node_id": self.node_id,
                "node_token": self.node_token,
                "assignment_id": assignment.assignment_id,
                "engine_token": spec.fencing_token,
                "result": result.to_dict() if result is not None else None,
                "failure": failure.to_dict() if failure is not None else None,
                "obs": assignment.obs,
            }
        )

    def _handle_cancel(self, message: Dict[str, object]) -> None:
        assignment_id = str(message.get("assignment_id", ""))
        with self._lock:
            assignment = self._assignments.get(assignment_id)
            supervisor = self._supervisors.get(assignment_id)
            if assignment is not None:
                assignment.cancelled = True
        if supervisor is not None:
            supervisor.kill_all(term_grace_seconds=0.5)

    def _kill_everything(self) -> None:
        with self._lock:
            for assignment in self._assignments.values():
                assignment.cancelled = True
            supervisors = list(self._supervisors.values())
        for supervisor in supervisors:
            supervisor.kill_all(term_grace_seconds=0.5)

    # -- the main loop -------------------------------------------------

    def run(self) -> int:
        self._sock = self._connect()
        self.sender = LineSender(self._sock)
        self._arm_faults()
        self.sender.send(
            {
                "type": "hello",
                "node_id": self.node_id,
                "node_token": self.node_token,
                "pid": os.getpid(),
            }
        )
        reader = self._sock.makefile("r", encoding="utf-8", newline="\n")
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="node-heartbeat", daemon=True
        )
        heartbeat.start()
        try:
            while True:
                line = reader.readline()
                if not line:
                    break  # dispatcher gone: stop computing for it
                try:
                    message = json.loads(line)
                except json.JSONDecodeError:
                    continue
                kind = message.get("type")
                if kind == "assign":
                    self._handle_assign(message)
                elif kind == "cancel":
                    self._handle_cancel(message)
                elif kind == "fenced":
                    self._exit_status = EXIT_FENCED
                    break
                elif kind == "shutdown":
                    break
                # "welcome" and anything unknown: no action required.
        finally:
            self._stop.set()
            for timer in self._timers:
                timer.cancel()
            self._kill_everything()
            try:
                reader.close()
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass
        return self._exit_status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.node",
        description="Worker node of the multi-node dispatch fabric.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="dispatcher address to dial",
    )
    parser.add_argument("--node-id", required=True)
    parser.add_argument("--node-token", type=int, required=True)
    parser.add_argument("--heartbeat-interval", type=float, default=0.5)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"invalid --connect address: {args.connect!r}", file=sys.stderr)
        return 2
    node = Node(
        node_id=args.node_id,
        node_token=args.node_token,
        host=host or "127.0.0.1",
        port=port,
        heartbeat_interval=args.heartbeat_interval,
    )
    return node.run()


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
