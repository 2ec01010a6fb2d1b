"""Kill/disk-fault chaos harness for the campaign supervisor.

The durability layer (:mod:`repro.runtime.journal`,
:mod:`repro.runtime.lease`, :mod:`repro.runtime.iofault`) makes strong
claims: a SIGKILL of the supervisor at *any* instruction — including
inside a journal or checkpoint write — leaves a run directory from
which ``--resume`` completes the campaign with no lost committed
attempt and no double-execution.  This module tests the claim the only
honest way: by actually killing real supervisors at seeded random
points, resuming, and auditing the wreckage.

One chaos *cycle*:

1. launch ``python -m repro.experiments --quick --run-dir <dir> ...``
   as a real subprocess (its own session, so the whole process group
   dies together);
2. SIGKILL it at a seeded random delay — or, on io-fault cycles, plant
   ``REPRO_IOFAULT=<site>:write:kill:<n>`` so the process SIGKILLs
   *itself* inside the Nth journal/checkpoint/events write, the
   nastiest possible crash point;
3. relaunch with ``--resume``; repeat the kill up to the cycle's kill
   budget, then let the final launch run to completion;
4. assert the aftermath:

   - the final run exits 0,
   - :func:`repro.validate.artifacts.validate_run_dir` reports no
     error-severity finding (journal audit included),
   - ``summary.json`` is byte-identical to an uninterrupted reference
     run's (the summary payload is deterministic by construction),
   - the journal shows at most one ``attempt-end`` per ``attempt_uid``
     and at most one *committed* ``attempt-end`` per experiment
     (no double-execution of a committed attempt),
   - ``events.jsonl`` agrees (at most one ``attempt-end`` event per
     ``attempt_uid``).

ENOSPC cycles swap the SIGKILL for a transient injected disk-full at a
checkpoint write; the supervisor must retry, complete, and leave an
audit-clean directory without any restart at all.

Everything is seeded: a failing cycle is rerun exactly with
``--seed``/``--cycles``.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.runtime.iofault import IOFAULT_ENV
from repro.runtime.journal import (
    COMMITTED_STATUSES,
    JOURNAL_FILENAME,
    read_journal,
)

#: Default experiment subset: three quick experiments with distinct
#: runtimes, so kills land before, between, and inside experiments.
DEFAULT_EXPERIMENTS = ("table1", "cost", "fig2")

#: Sites (and write-count ranges) eligible for self-kill injection.
#: The upper bound keeps the Nth write inside the count a quick
#: three-experiment campaign actually performs at that site.
IO_KILL_SITES = {
    "journal": (1, 10),
    "checkpoint": (1, 4),
    "events": (1, 12),
}

#: Streamed-campaign kill sites: inside a trace-shard write
#: (mid-generation) and inside a simulator-snapshot write
#: (mid-simulation).  Only meaningful with ``--jobs 0`` — the worker
#: environment deliberately strips ``REPRO_IOFAULT``, so planted
#: faults fire only when the supervisor itself runs the experiments.
STREAM_IO_KILL_SITES = {
    "shard": (1, 4),
    "simckpt": (1, 3),
}

#: Hard ceiling on restarts per cycle, over and above the kill budget
#: (a safety net: the loop should always terminate via completion).
MAX_RESTARTS = 20

@dataclass
class CycleResult:
    """The audited outcome of one chaos cycle."""

    cycle: int
    kind: str  # "time-kill", "io-kill", or "enospc"
    kills: int = 0
    launches: int = 0
    problems: List[str] = field(default_factory=list)
    detail: str = ""

    @property
    def passed(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        line = (
            f"cycle {self.cycle:3d} [{self.kind}] "
            f"{self.launches} launch(es), {self.kills} kill(s): {verdict}"
        )
        if self.detail:
            line += f" ({self.detail})"
        return line


@dataclass
class ChaosReport:
    """Aggregate over all cycles."""

    cycles: List[CycleResult] = field(default_factory=list)
    reference_dir: Optional[str] = None
    work_dir: Optional[str] = None

    @property
    def passed(self) -> bool:
        return bool(self.cycles) and all(c.passed for c in self.cycles)

    @property
    def total_kills(self) -> int:
        return sum(c.kills for c in self.cycles)

    def render(self) -> str:
        lines = ["== chaos report =="]
        for cycle in self.cycles:
            lines.append("  " + cycle.summary())
            for problem in cycle.problems:
                lines.append(f"      problem: {problem}")
        failed = sum(1 for c in self.cycles if not c.passed)
        lines.append(
            f"  total: {len(self.cycles)} cycle(s), {self.total_kills} "
            f"SIGKILL(s), {failed} failure(s)"
        )
        return "\n".join(lines)


def _campaign_env(io_fault: Optional[str] = None) -> Dict[str, str]:
    """Environment for a chaos-launched supervisor.

    Propagates ``sys.path`` (the harness may run from a source tree) and
    sets/strips ``REPRO_IOFAULT`` explicitly so one cycle's fault can
    never leak into the next.
    """
    env = dict(os.environ)
    entries = [entry for entry in sys.path if entry]
    if entries:
        env["PYTHONPATH"] = os.pathsep.join(entries)
    if io_fault is None:
        env.pop(IOFAULT_ENV, None)
    else:
        env[IOFAULT_ENV] = io_fault
    return env


def _launch(
    run_dir: Path,
    experiments: Sequence[str],
    jobs: int,
    resume: bool,
    io_fault: Optional[str] = None,
    stream: bool = False,
    shard_refs: Optional[int] = None,
) -> subprocess.Popen:
    """Start one real supervisor over ``run_dir`` (own session)."""
    cmd = [
        sys.executable,
        "-m",
        "repro.experiments",
        "--quick",
        "--jobs",
        str(jobs),
    ]
    if stream:
        cmd.append("--stream")
        if shard_refs is not None:
            cmd.extend(["--shard-refs", str(shard_refs)])
    cmd += [
        "--resume" if resume else "--run-dir",
        str(run_dir),
        *experiments,
    ]
    return subprocess.Popen(
        cmd,
        stdout=subprocess.DEVNULL,  # progress spam must never fill a pipe
        stderr=subprocess.PIPE,
        text=True,
        env=_campaign_env(io_fault),
        start_new_session=True,  # killable (and self-killable) as a group
    )


def _killpg(proc: subprocess.Popen) -> None:
    """SIGKILL the supervisor's whole process group, workers included."""
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError, OSError):
        try:
            proc.kill()
        except (ProcessLookupError, OSError):
            pass


def _finish(proc: subprocess.Popen, timeout: float) -> Tuple[int, str]:
    """Wait for ``proc``; on harness timeout, kill it and report."""
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _killpg(proc)
        _, stderr = proc.communicate()
        return -1 * signal.SIGKILL, (stderr or "") + "\n[harness timeout]"
    return proc.returncode, stderr or ""


def run_reference(
    work_dir: Path,
    experiments: Sequence[str],
    jobs: int,
    timeout: float,
    stream: bool = False,
    shard_refs: Optional[int] = None,
) -> Tuple[Path, float, bytes]:
    """One uninterrupted campaign: the oracle every cycle compares to.

    Returns ``(run_dir, duration_seconds, summary_bytes)``.
    """
    run_dir = work_dir / "reference"
    started = time.monotonic()
    proc = _launch(
        run_dir, experiments, jobs, resume=False,
        stream=stream, shard_refs=shard_refs,
    )
    returncode, stderr = _finish(proc, timeout)
    duration = time.monotonic() - started
    if returncode != 0:
        raise RuntimeError(
            f"reference campaign failed with exit {returncode}:\n"
            f"{stderr[-2000:]}"
        )
    summary_path = run_dir / "summary.json"
    if not summary_path.is_file():
        raise RuntimeError("reference campaign left no summary.json")
    return run_dir, duration, summary_path.read_bytes()


def audit_run_dir(
    run_dir: Path,
    reference_summary: bytes,
    experiments: Sequence[str],
    deep: bool = False,
) -> List[str]:
    """Every post-recovery invariant the durability layer promises.

    Returns human-readable problem strings (empty = audit-clean).
    """
    problems: List[str] = []

    # 1. Artifact validation (includes the journal/lease audit).
    from repro.validate.artifacts import validate_run_dir

    report = validate_run_dir(run_dir, deep=deep)
    for finding in report.errors:
        problems.append(f"validate: [{finding.code}] {finding.message}")

    # 2. Summary byte-equivalence with the uninterrupted reference.
    summary_path = run_dir / "summary.json"
    if not summary_path.is_file():
        problems.append("no summary.json after final run")
    elif summary_path.read_bytes() != reference_summary:
        problems.append(
            "summary.json differs from the uninterrupted reference run"
        )

    # 3. Journal invariants: exactly-once commits, no double-execution.
    replay = read_journal(run_dir / JOURNAL_FILENAME)
    # (Fencing-token monotonicity is part of the validation above.)
    end_counts: Dict[str, int] = {}
    committed_ends: Dict[str, int] = {}
    for record in replay.records:
        if record.get("type") != "attempt-end":
            continue
        uid = str(record.get("attempt_uid", ""))
        end_counts[uid] = end_counts.get(uid, 0) + 1
        if record.get("status") in COMMITTED_STATUSES:
            experiment_id = str(record.get("experiment_id"))
            committed_ends[experiment_id] = (
                committed_ends.get(experiment_id, 0) + 1
            )
    for uid, count in sorted(end_counts.items()):
        if count > 1:
            problems.append(
                f"journal: attempt uid {uid} has {count} attempt-end "
                "records (exactly-once violated)"
            )
    for experiment_id, count in sorted(committed_ends.items()):
        if count > 1:
            problems.append(
                f"journal: experiment {experiment_id} committed {count} "
                "times (double-execution of a committed attempt)"
            )
    for experiment_id in experiments:
        if not (run_dir / "results" / f"{experiment_id}.json").is_file():
            problems.append(
                f"lost committed attempt: no checkpoint for {experiment_id}"
            )

    # 4. The event log agrees with the journal.
    from repro.runtime.events import read_events

    event_ends: Dict[str, int] = {}
    for event in read_events(run_dir / "events.jsonl"):
        if event.get("event") != "attempt-end":
            continue
        uid = str(event.get("attempt_uid", ""))
        event_ends[uid] = event_ends.get(uid, 0) + 1
    for uid, count in sorted(event_ends.items()):
        if count > 1:
            problems.append(
                f"events: attempt uid {uid} has {count} attempt-end "
                "events (exactly-once violated)"
            )
    return problems


def run_cycle(
    cycle: int,
    rng: random.Random,
    work_dir: Path,
    experiments: Sequence[str],
    jobs: int,
    reference_duration: float,
    reference_summary: bytes,
    timeout: float,
    kind: str,
    deep: bool = False,
    stream: bool = False,
    shard_refs: Optional[int] = None,
) -> CycleResult:
    """One kill/resume (or ENOSPC) cycle; see the module docstring."""
    result = CycleResult(cycle=cycle, kind=kind)
    run_dir = work_dir / f"cycle-{cycle:03d}"

    kills_planned = 0 if kind == "enospc" else rng.randint(1, 3)
    io_fault: Optional[str] = None
    if kind == "io-kill":
        # Streamed campaigns aim every planted kill at the streaming
        # substrate itself — mid-shard-write and mid-snapshot-write —
        # which only fires in-process (--jobs 0); the classic sites
        # stay covered by the non-streamed chaos runs.
        sites = (
            STREAM_IO_KILL_SITES if stream and jobs == 0 else IO_KILL_SITES
        )
        site = rng.choice(sorted(sites))
        low, high = sites[site]
        io_fault = f"{site}:write:kill:{rng.randint(low, high)}"
        result.detail = io_fault
    elif kind == "enospc":
        # Transient disk-full at a checkpoint write: the engine's
        # bounded retry must absorb it without any restart.
        io_fault = f"checkpoint:write:enospc:{rng.randint(1, 3)}"
        result.detail = io_fault

    while result.launches < MAX_RESTARTS:
        resume = result.launches > 0
        # The planted io fault applies to the first launch only; resumed
        # supervisors run fault-free (the crash already happened).
        fault_now = io_fault if result.launches == 0 else None
        proc = _launch(
            run_dir, experiments, jobs, resume, fault_now,
            stream=stream, shard_refs=shard_refs,
        )
        result.launches += 1

        if kind == "time-kill" and result.kills < kills_planned:
            delay = rng.uniform(0.05, max(0.2, 0.9 * reference_duration))
            try:
                proc.wait(timeout=delay)
            except subprocess.TimeoutExpired:
                _killpg(proc)
            proc.communicate()
        else:
            returncode, stderr = _finish(proc, timeout)
            if returncode == 0:
                break
            if returncode == -signal.SIGKILL and kind == "io-kill":
                # The planted fault fired: the supervisor killed itself
                # mid-write, exactly as intended.  Resume.
                result.kills += 1
                continue
            result.problems.append(
                f"launch {result.launches} exited {returncode} "
                f"unexpectedly: {stderr[-500:]}"
            )
            return result

        if proc.returncode == 0:
            break  # finished before the kill landed — cycle still counts
        result.kills += 1

    else:
        result.problems.append(
            f"campaign did not complete within {MAX_RESTARTS} launches"
        )
        return result

    result.problems.extend(
        audit_run_dir(run_dir, reference_summary, experiments, deep=deep)
    )
    if result.passed:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result


def run_chaos(
    cycles: int = 10,
    seed: int = 0,
    experiments: Sequence[str] = DEFAULT_EXPERIMENTS,
    jobs: int = 1,
    enospc_cycles: int = 1,
    work_dir: Optional[Union[str, Path]] = None,
    timeout: float = 300.0,
    deep: bool = False,
    stream: bool = False,
    shard_refs: Optional[int] = None,
) -> ChaosReport:
    """Run the full chaos campaign; see the module docstring.

    Args:
        cycles: SIGKILL/resume cycles (alternating timed kills and
            in-write self-kills).
        seed: Master seed; the whole campaign is a function of it.
        experiments: Experiment ids for every run (quick mode).
        jobs: ``--jobs`` for the campaigns under test.
        enospc_cycles: Additional transient disk-full cycles.
        work_dir: Where run directories live (default: a fresh temp
            dir, removed when every cycle passes).
        timeout: Harness ceiling per uninterrupted launch, seconds.
        deep: Run the invariant oracles during the audit (slower).
        stream: Run every campaign (reference and cycles alike) with
            ``--stream``, and aim io-kill cycles at the shard and
            simulator-checkpoint writes so the kills land
            mid-generation and mid-simulation.  Use ``jobs=0`` so the
            planted faults fire in the supervisor process.
        shard_refs: ``--shard-refs`` for streamed campaigns (pick a
            value small enough that the quick traces split into
            several shards, or the mid-simulation checkpoints never
            happen).
    """
    report = ChaosReport()
    owns_work_dir = work_dir is None
    work_path = Path(
        tempfile.mkdtemp(prefix="repro-chaos-") if owns_work_dir else work_dir
    )
    work_path.mkdir(parents=True, exist_ok=True)
    report.work_dir = str(work_path)

    reference_dir, duration, reference_summary = run_reference(
        work_path, experiments, jobs, timeout,
        stream=stream, shard_refs=shard_refs,
    )
    report.reference_dir = str(reference_dir)

    for cycle in range(cycles):
        rng = random.Random((seed << 20) ^ (cycle * 0x9E3779B1))
        # Alternate timed kills with self-kills planted inside the
        # durability writes themselves.
        kind = "io-kill" if cycle % 2 else "time-kill"
        report.cycles.append(
            run_cycle(
                cycle, rng, work_path, experiments, jobs,
                duration, reference_summary, timeout, kind, deep=deep,
                stream=stream, shard_refs=shard_refs,
            )
        )
    for extra in range(enospc_cycles):
        cycle = cycles + extra
        rng = random.Random((seed << 20) ^ (cycle * 0x9E3779B1))
        report.cycles.append(
            run_cycle(
                cycle, rng, work_path, experiments, jobs,
                duration, reference_summary, timeout, "enospc", deep=deep,
                stream=stream, shard_refs=shard_refs,
            )
        )

    if report.passed and owns_work_dir:
        shutil.rmtree(work_path, ignore_errors=True)
    return report
