"""Run the experiment campaign and print the consolidated report.

The campaign runs on the fault-tolerant engine in
:mod:`repro.runtime.engine`: each experiment is isolated, failures are
captured and retried with exponential backoff (degrading to the quick
parameterization), per-experiment wall-clock budgets bound hangs, and
completed results are checkpointed for resume.

By default (``--jobs 1``) every attempt runs hard-isolated in its own
supervised worker process, forked from one preloaded fork server per
campaign (:mod:`repro.runtime.workers`): ``--jobs N``
runs N experiments concurrently, ``--hard-timeout-seconds`` kills
non-cooperative hangs with SIGTERM→SIGKILL, and ``--max-rss-mb``
rlimits each worker's address space so an OOM takes down one worker,
not the campaign.  ``--jobs 0`` selects the legacy in-process serial
backend (debugging).

Usage::

    python -m repro.experiments                  # everything (minutes)
    python -m repro.experiments fig2 table2 ...  # a subset
    python -m repro.experiments --quick          # reduced sizes (~1 min)
    python -m repro.experiments --list           # enumerate experiment ids
    python -m repro.experiments --budget-seconds 120 --run-dir runs/full
    python -m repro.experiments --resume runs/full   # skip finished ids
    python -m repro.experiments --jobs 4 --hard-timeout-seconds 600 \
        --max-rss-mb 2048 --run-dir runs/par     # parallel + contained
    python -m repro.experiments --validate --run-dir runs/full
                                      # reject results failing the oracles
    python -m repro.experiments --verify-store runs/full
                                      # checksum every checkpoint, exit 0/1
    python -m repro.experiments validate runs/full
                                      # full artifact validation of a run dir
    python -m repro.experiments fuzz --cases 500
                                      # adversarial fuzz of artifact readers
    python -m repro.experiments chaos --cycles 10
                                      # SIGKILL/resume chaos gate
    python -m repro.experiments status runs/full --follow
                                      # live per-experiment state/ETA
    python -m repro.experiments report runs/full --html -o report.html
                                      # static post-hoc campaign report
    python -m repro.experiments --quick --run-dir runs/q \
        --archive perf-archive.jsonl  # append an attributed perf row
    python -m repro.experiments trends perf-archive.jsonl
                                      # cross-campaign regression check

Campaigns are observable by default (``--no-obs`` or ``REPRO_OBS=0``
opts out): counters/gauges/histograms roll up into
``<run_dir>/metrics.json``, spans into ``<run_dir>/spans.jsonl``,
per-chunk working-set telemetry into ``<run_dir>/timeline.jsonl``
(phase segmentation + per-phase knees), and the ``status`` /
``report`` subcommands reconstruct everything read-only from those
artifacts plus the journal and event log.  See
``docs/OBSERVABILITY.md``.

Campaigns with a run directory are crash-consistent: every state
transition is written ahead to ``<run_dir>/journal.wal`` (fsynced,
CRC-framed), a heartbeat lease (``supervisor.lease``) fences out
concurrent or superseded supervisors with a monotonic token, and
``--resume`` replays the journal to decide what is committed — a
``kill -9`` at any instruction loses nothing that was committed and
re-runs nothing that was.  See ``docs/DURABILITY.md``.

Exit status: 0 when every experiment finished (possibly degraded),
1 when any experiment ultimately failed after retries or the campaign
was interrupted (Ctrl-C / SIGTERM — completed results are already
checkpointed, so ``--resume`` finishes the remainder), 2 on usage
errors.  The ``validate`` / ``fuzz`` / ``chaos`` subcommands and
``--verify-store`` exit 0 on a clean report, 1 on findings, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments import (
    all_cache,
    assoc_study,
    bh_phases,
    cg_blocking,
    cg_unstructured,
    cost_model,
    fig2_lu,
    fig4_cg,
    fig5_fft,
    fig6_barneshut,
    fig7_volrend,
    grain_sweep,
    hierarchy_design,
    line_size_study,
    prefetch_study,
    scaling_study,
    table1,
    table2,
    volrend_stealing,
)
from repro.obs import console
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.engine import (
    CampaignEngine,
    CampaignReport,
    EngineConfig,
    ExperimentOutcome,
)
from repro.runtime.errors import JournalCorruptError, LeaseHeldError
from repro.runtime.events import EventLog
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.runtime.iofault import install_from_env
from repro.runtime.journal import JOURNAL_FILENAME, Journal, recover
from repro.runtime.lease import DEFAULT_TTL_SECONDS, Lease

#: ``--inject-fault`` kind names -> FaultSpec constructor kwargs.
#: ``hang-hard`` is the non-cooperative variant only the worker
#: backend's kill escalation can stop.
INJECTABLE_FAULTS = {
    "crash": {"kind": "crash"},
    "hang": {"kind": "hang", "cooperative": True},
    "hang-hard": {"kind": "hang", "cooperative": False},
    "memhog": {"kind": "memhog"},
    "die": {"kind": "die"},
    "corrupt-trace": {"kind": "corrupt-trace"},
}

#: id -> kwargs overriding the defaults for a fast smoke run; also the
#: degradation target when a full-size experiment fails or runs over
#: budget.
QUICK_OVERRIDES = {
    "fig2": {"validate_n": 64},
    "fig4": {"validate_n": 64},
    "fig5": {"validate_n": 2**10},
    "fig6": {"n": 256},
    "fig7": {"n": 32, "slope_sizes": (24, 40)},
    "assoc": {"n": 128, "capacities": [1 << k for k in range(8, 16)]},
    "bh-phases": {"n": 256},
    "cg-unstructured": {"side": 32, "num_parts": 8},
    "volrend-stealing": {"n": 32, "processor_counts": (4, 16, 64)},
}

#: id -> (module, kwargs for a full-quality run)
EXPERIMENTS = {
    "fig2": (fig2_lu, {}),
    "fig4": (fig4_cg, {}),
    "fig5": (fig5_fft, {}),
    "fig6": (fig6_barneshut, {}),
    "fig7": (fig7_volrend, {}),
    "table1": (table1, {}),
    "table2": (table2, {}),
    "grain": (grain_sweep, {}),
    "all-cache": (all_cache, {}),
    "assoc": (assoc_study, {}),
    "bh-phases": (bh_phases, {}),
    "prefetch": (prefetch_study, {}),
    "hierarchy": (hierarchy_design, {}),
    "line-size": (line_size_study, {}),
    "cost": (cost_model, {}),
    "scaling": (scaling_study, {}),
    "cg-blocking": (cg_blocking, {}),
    "cg-unstructured": (cg_unstructured, {}),
    "volrend-stealing": (volrend_stealing, {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids to run (default: all; see --list)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run every experiment at its reduced-size parameterization",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_ids",
        help="list experiment ids and exit",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget per experiment attempt (default: unlimited)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="attempts per experiment before it counts as failed (default: 3)",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="checkpoint completed results into DIR",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume a checkpointed campaign: skip experiments already "
        "completed in DIR and checkpoint new results there",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run N experiments concurrently, each attempt in its own "
        "supervised worker process forked from one preloaded fork "
        "server; 0 = legacy in-process serial backend (default: 1)",
    )
    parser.add_argument(
        "--hard-timeout-seconds",
        type=float,
        default=None,
        metavar="S",
        help="hard per-attempt deadline enforced by killing the worker "
        "(SIGTERM, then SIGKILL); catches hangs the cooperative budget "
        "cannot see (default: 2x --budget-seconds + 30 when a budget "
        "is set, else unlimited)",
    )
    parser.add_argument(
        "--max-rss-mb",
        type=int,
        default=None,
        metavar="MB",
        help="address-space rlimit per worker in MiB; an OOM kills one "
        "worker instead of the campaign (default: unlimited)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="run the invariant oracles over every successful attempt; "
        "a result that fails them is rejected and retried (degrading) "
        "like any other failure",
    )
    parser.add_argument(
        "--verify-store",
        default=None,
        metavar="DIR",
        dest="verify_store",
        help="verify every checkpoint envelope in DIR (manifest, summary, "
        "results, failures) and exit: 0 = all sound, 1 = corruption found "
        "or no envelope to check, 2 = DIR is not a directory",
    )
    parser.add_argument(
        "--lease-ttl-seconds",
        type=float,
        default=DEFAULT_TTL_SECONDS,
        metavar="S",
        help="staleness threshold for the run-directory supervisor lease; "
        "a lease whose heartbeat is older (or whose owner is dead) is "
        f"reclaimed with a bumped fencing token (default: "
        f"{DEFAULT_TTL_SECONDS:g})",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="ID=KIND[:ATTEMPTS]",
        dest="inject_faults",
        help="testing/CI only: inject a fault into experiment ID for its "
        f"first ATTEMPTS attempts (default 1); kinds: "
        f"{', '.join(INJECTABLE_FAULTS)}",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="generate and simulate traces out-of-core: generators spill "
        "CRC'd shards to disk (bounded memory), simulators consume them "
        "chunk-wise and checkpoint at shard boundaries so a kill "
        "mid-simulation resumes from the last boundary; shards live "
        "under <run-dir>/stream (or a temp directory without --run-dir)",
    )
    parser.add_argument(
        "--shard-refs",
        type=int,
        default=None,
        metavar="N",
        dest="shard_refs",
        help="references per trace shard when --stream is on "
        "(default: 262144); smaller shards mean more frequent "
        "mid-simulation checkpoints at more I/O cost",
    )
    parser.add_argument(
        "--kernel-tier",
        choices=("vector", "oracle"),
        default=None,
        dest="kernel_tier",
        help="simulation kernel tier: 'vector' (default) runs the numpy "
        "batch kernels on every chunk they cover; 'oracle' forces the "
        "per-reference loops everywhere (default: REPRO_KERNEL_TIER, "
        "else 'vector'; see docs/KERNELS.md)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress output (warnings and errors still print; "
        "equivalent to REPRO_LOG_LEVEL=warning)",
    )
    parser.add_argument(
        "--no-obs",
        action="store_true",
        dest="no_obs",
        help="disable campaign telemetry (metrics.json, spans.jsonl); "
        "REPRO_OBS=0/1 overrides in either direction",
    )
    parser.add_argument(
        "--archive",
        default=None,
        metavar="FILE",
        help="when the campaign finishes, append one attributed "
        "perf-archive row (git SHA, timestamp, hostname, refs/s, "
        "per-phase knee estimates) to FILE; inspect the history with "
        "the `trends` subcommand",
    )
    return parser


def parse_fault_plan(entries: List[str]) -> Dict[str, FaultSpec]:
    """Parse ``--inject-fault ID=KIND[:ATTEMPTS]`` flags into a plan.

    Raises ``ValueError`` with a usage message on malformed entries.
    """
    plan: Dict[str, FaultSpec] = {}
    for entry in entries:
        experiment_id, sep, rest = entry.partition("=")
        if not sep or not experiment_id or not rest:
            raise ValueError(
                f"--inject-fault {entry!r}: expected ID=KIND[:ATTEMPTS]"
            )
        kind, _, attempts_text = rest.partition(":")
        if kind not in INJECTABLE_FAULTS:
            raise ValueError(
                f"--inject-fault {entry!r}: unknown kind {kind!r}; "
                f"choices: {', '.join(INJECTABLE_FAULTS)}"
            )
        fail_attempts = 1
        if attempts_text:
            try:
                fail_attempts = int(attempts_text)
            except ValueError:
                raise ValueError(
                    f"--inject-fault {entry!r}: ATTEMPTS must be an integer"
                )
        plan[experiment_id] = FaultSpec(
            fail_attempts=fail_attempts, **INJECTABLE_FAULTS[kind]
        )
    return plan


def _print_event(event: str, payload: object) -> None:
    info = console.info
    if event == "resume" and isinstance(payload, ExperimentOutcome):
        info(
            f"[{payload.experiment_id} already completed "
            f"({payload.status}); skipping]\n"
        )
    elif event == "interrupted" and isinstance(payload, CampaignReport):
        info(
            f"\n[campaign interrupted: {len(payload.outcomes)} experiment(s) "
            "finished and checkpointed; rerun with --resume to complete "
            "the remainder]"
        )
        if payload.outcomes:
            info(payload.render())
    elif event == "finish" and isinstance(payload, ExperimentOutcome):
        if payload.resumed:
            return
        if payload.succeeded and payload.result is not None:
            info(payload.result.render())
            tag = " (degraded)" if payload.status == "degraded" else ""
            info(
                f"[{payload.experiment_id} completed{tag} in "
                f"{payload.elapsed_seconds:.1f}s]\n"
            )
        else:
            info(f"[{payload.experiment_id} FAILED after "
                 f"{payload.attempts} attempt(s)]")
            for failure in payload.failures:
                info(f"  {failure.summary()}")
            info("")


def validate_command(argv: List[str]) -> int:
    """``python -m repro.experiments validate <run-dir>``.

    Full artifact validation of a campaign run directory: envelope
    checksums, payload schemas, cross-file consistency, the strict
    event-log reader, saved traces, and the invariant oracles over
    every stored result.  Exit 0 on a clean report, 1 on any
    error-severity finding.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments validate",
        description="Validate every artifact in a campaign run directory.",
    )
    parser.add_argument("run_dir", metavar="RUN_DIR", help="campaign directory")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    parser.add_argument(
        "--shallow",
        action="store_true",
        help="skip the invariant oracles over stored results",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    from repro.validate.artifacts import validate_run_dir

    report = validate_run_dir(args.run_dir, deep=not args.shallow)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(report.render())
    return 0 if report.ok else 1


def fuzz_command(argv: List[str]) -> int:
    """``python -m repro.experiments fuzz``.

    Deterministic adversarial fuzz of the artifact readers; exit 0
    when every mutated artifact was handled within the readers' typed
    error contracts, 1 otherwise.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments fuzz",
        description="Fuzz the trace/checkpoint/event readers with "
        "corrupted artifacts.",
    )
    parser.add_argument(
        "--cases", type=int, default=500, metavar="N",
        help="mutated artifacts to generate (default: 500)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="RNG seed; the campaign is a pure function of it (default: 0)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.cases < 1:
        print("--cases must be >= 1")
        return 2

    from repro.validate.fuzz import run_fuzz

    report = run_fuzz(cases=args.cases, seed=args.seed)
    if args.json:
        import json

        print(json.dumps(report.to_validation_report().to_dict(), indent=1))
    else:
        print(report.render())
    return 0 if report.ok else 1


def chaos_command(argv: List[str]) -> int:
    """``python -m repro.experiments chaos``.

    The kill/disk-fault chaos gate: repeatedly SIGKILL a real quick
    campaign at seeded random points (including inside journal and
    checkpoint writes), resume it, and assert the final run directory
    is audit-clean with a summary byte-identical to an uninterrupted
    reference run.  Exit 0 when every cycle passes, 1 otherwise.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments chaos",
        description="SIGKILL/resume and disk-fault chaos testing of the "
        "campaign supervisor's crash consistency.",
    )
    parser.add_argument(
        "--cycles", type=int, default=10, metavar="N",
        help="SIGKILL/resume cycles (default: 10)",
    )
    parser.add_argument(
        "--enospc-cycles", type=int, default=1, metavar="N",
        help="additional transient disk-full cycles (default: 1)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="master seed; kill points are a pure function of it "
        "(default: 0)",
    )
    parser.add_argument(
        "--experiments", default=",".join(chaos_module_defaults()),
        metavar="IDS", help="comma-separated experiment ids for every "
        "campaign under test",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="--jobs for the campaigns under test (default: 1)",
    )
    parser.add_argument(
        "--work-dir", default=None, metavar="DIR",
        help="where cycle run directories live (default: a temp dir, "
        "removed when every cycle passes; failing cycles are kept "
        "either way)",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="harness ceiling per uninterrupted launch (default: 300)",
    )
    parser.add_argument(
        "--deep", action="store_true",
        help="run the invariant oracles during each audit (slower)",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="run every campaign under test with --stream, and aim the "
        "io-kill cycles at the shard/simulator-checkpoint writes so "
        "kills land mid-generation and mid-simulation (needs --jobs 0 "
        "for the planted faults to fire in the supervisor process)",
    )
    parser.add_argument(
        "--shard-refs", type=int, default=None, metavar="N",
        dest="shard_refs",
        help="--shard-refs for the streamed campaigns under test",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.cycles < 0 or args.enospc_cycles < 0:
        print("--cycles and --enospc-cycles must be >= 0")
        return 2
    if args.cycles + args.enospc_cycles < 1:
        print("nothing to do: --cycles + --enospc-cycles must be >= 1")
        return 2
    if args.shard_refs is not None and not args.stream:
        print("--shard-refs requires --stream")
        return 2
    if args.shard_refs is not None and args.shard_refs < 1:
        print("--shard-refs must be >= 1")
        return 2
    experiments = [e for e in args.experiments.split(",") if e]
    unknown = [e for e in experiments if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; choices: {list(EXPERIMENTS)}")
        return 2

    from repro.runtime.chaos import run_chaos

    report = run_chaos(
        cycles=args.cycles,
        seed=args.seed,
        experiments=experiments,
        jobs=args.jobs,
        enospc_cycles=args.enospc_cycles,
        work_dir=args.work_dir,
        timeout=args.timeout,
        deep=args.deep,
        stream=args.stream,
        shard_refs=args.shard_refs,
    )
    print(report.render())
    if not report.passed:
        print(f"[failing run directories kept under {report.work_dir}]")
    return 0 if report.passed else 1


def chaos_module_defaults() -> List[str]:
    from repro.runtime.chaos import DEFAULT_EXPERIMENTS

    return list(DEFAULT_EXPERIMENTS)


def verify_store_command(run_dir: str) -> int:
    """``--verify-store DIR``: checksum every checkpoint envelope.

    Exit 0 when DIR holds at least one envelope and every one verifies,
    1 when any is corrupt or there is none to verify, 2 when DIR is not
    a directory.
    """
    store = CheckpointStore(run_dir)
    if not store.run_dir.is_dir():
        print(f"store {run_dir}: not a directory")
        return 2
    checked = store.envelope_paths()
    if not checked:
        print(f"store {run_dir}: no checkpoint envelopes found")
        return 1
    problems = store.verify_all()
    if not problems:
        print(
            f"store {run_dir}: every envelope verified "
            f"({len(checked)} checked)"
        )
        return 0
    print(f"store {run_dir}: {len(problems)} corrupt envelope(s)")
    for rel_path, message in sorted(problems.items()):
        print(f"  {rel_path}: {message}")
    return 1


def status_command(argv: List[str]) -> int:
    """``python -m repro.experiments status <run-dir>``.

    One-shot (or ``--follow``) live view of a campaign run directory:
    per-experiment state, attempt/retry counts, throughput, and ETA,
    reconstructed read-only from ``events.jsonl``, ``journal.wal``,
    ``summary.json``, the supervisor lease, and ``metrics.json`` —
    torn tails and missing files degrade the view, never crash it.
    Exit 0 whenever the directory could be inspected, 2 on usage
    errors.
    """
    import time as _time

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments status",
        description="Show live campaign status for a run directory.",
    )
    parser.add_argument("run_dir", metavar="RUN_DIR", help="campaign directory")
    parser.add_argument(
        "--follow",
        action="store_true",
        help="keep re-rendering until the campaign is no longer running",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="refresh period with --follow (default: 2.0)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the status as JSON instead of text",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.interval <= 0:
        print("--interval must be positive")
        return 2
    from pathlib import Path

    if not Path(args.run_dir).is_dir():
        print(f"status: {args.run_dir} is not a directory")
        return 2

    from repro.obs.status import load_status, render_status

    try:
        while True:
            status = load_status(args.run_dir)
            if args.json:
                import json

                print(json.dumps(status.to_dict(), indent=1, sort_keys=True))
            else:
                print(render_status(status))
            if not args.follow or status.state != "running":
                return 0
            _time.sleep(args.interval)
            print()
    except BrokenPipeError:
        # `status ... | head` closing the pipe is not an error.
        sys.stderr.close()
        return 0


def report_command(argv: List[str]) -> int:
    """``python -m repro.experiments report <run-dir>``.

    Static post-hoc campaign report: timings, retry/fault/validation
    summary, miss-rate result tables, metrics rollup, and slowest
    spans, as markdown (default), HTML (``--html``), or JSON
    (``--json``).  Exit 0 whenever the report could be produced, 2 on
    usage errors.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments report",
        description="Render a static report for a campaign run directory.",
    )
    parser.add_argument("run_dir", metavar="RUN_DIR", help="campaign directory")
    parser.add_argument(
        "--html",
        action="store_true",
        help="emit a self-contained HTML page instead of markdown",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable status/tally JSON instead",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.html and args.json:
        print("--html and --json are mutually exclusive")
        return 2
    from pathlib import Path

    if not Path(args.run_dir).is_dir():
        print(f"report: {args.run_dir} is not a directory")
        return 2

    from repro.obs.report import render_report, render_report_html, report_to_json

    if args.json:
        text = report_to_json(args.run_dir)
    elif args.html:
        text = render_report_html(args.run_dir)
    else:
        text = render_report(args.run_dir)
    try:
        if args.output is not None:
            Path(args.output).write_text(text, encoding="utf-8")
            print(f"report written to {args.output}")
        else:
            print(text)
    except BrokenPipeError:
        # `report ... | head` closing the pipe is not an error.
        sys.stderr.close()
    return 0


def trends_command(argv: List[str]) -> int:
    """``python -m repro.experiments trends <archive>``.

    Robust regression detection over a ``perf-archive.jsonl`` history:
    for every series (campaign or benchmark) the newest row is compared
    against the median of its history, with a MAD-scaled noise band so
    variable hardware does not flag spuriously.  Exit 0 when no series
    regressed (including the first-row case with no history yet), 1
    when any series is flagged, 2 on usage errors.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments trends",
        description="Detect perf regressions across archived campaign "
        "and benchmark rows.",
    )
    parser.add_argument(
        "archive", metavar="ARCHIVE", help="perf-archive.jsonl path"
    )
    parser.add_argument(
        "--metric",
        default="refs_per_second",
        metavar="NAME",
        help="row field to trend (default: refs_per_second)",
    )
    parser.add_argument(
        "--threshold-pct",
        type=float,
        default=10.0,
        metavar="PCT",
        help="minimum drop vs the series median to flag (default: 10; "
        "noisy series need more, by their own MAD band)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable findings instead of the table",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.threshold_pct < 0:
        print("--threshold-pct must be >= 0")
        return 2
    if not Path(args.archive).is_file():
        print(f"trends: {args.archive} does not exist")
        return 2

    from repro.obs.archive import ARCHIVE_MAGIC, detect_regressions, render_trends
    from repro.runtime.records import scan as scan_log

    scan = scan_log(args.archive, ARCHIVE_MAGIC)
    findings = detect_regressions(
        scan.records, metric=args.metric, threshold_pct=args.threshold_pct
    )
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "archive": args.archive,
                    "metric": args.metric,
                    "rows": len(scan.records),
                    "damaged_lines": [line for line, _ in scan.damaged],
                    "torn_tail": scan.torn_tail,
                    "findings": findings,
                },
                indent=1,
                sort_keys=True,
            )
        )
    else:
        print(render_trends(findings))
        if scan.damaged:
            print(
                f"note: {len(scan.damaged)} damaged archive line(s) "
                "skipped (run `validate` for details)"
            )
        if scan.torn_tail:
            print("note: archive has a torn tail (interrupted append)")
    return 1 if any(f.get("regression") for f in findings) else 0


#: Subcommand names dispatched before experiment-id parsing.  Safe
#: because they can never collide with experiment ids (asserted by the
#: CLI test suite).
SUBCOMMANDS = {
    "validate": validate_command,
    "fuzz": fuzz_command,
    "chaos": chaos_command,
    "status": status_command,
    "report": report_command,
    "trends": trends_command,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.list_ids:
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0

    if args.verify_store is not None:
        return verify_store_command(args.verify_store)

    if args.budget_seconds is not None and args.budget_seconds <= 0:
        print("--budget-seconds must be positive")
        return 2
    if args.max_attempts < 1:
        print("--max-attempts must be >= 1")
        return 2
    if args.jobs < 0:
        print("--jobs must be >= 0")
        return 2
    if args.hard_timeout_seconds is not None and args.hard_timeout_seconds <= 0:
        print("--hard-timeout-seconds must be positive")
        return 2
    if args.max_rss_mb is not None and args.max_rss_mb <= 0:
        print("--max-rss-mb must be positive")
        return 2
    if args.shard_refs is not None and not args.stream:
        print("--shard-refs requires --stream")
        return 2
    if args.shard_refs is not None and args.shard_refs < 1:
        print("--shard-refs must be >= 1")
        return 2
    if args.archive is not None and not (args.run_dir or args.resume):
        print("--archive requires --run-dir or --resume (the archive row "
              "is built from the run directory's artifacts)")
        return 2
    try:
        fault_plan = parse_fault_plan(args.inject_faults)
    except ValueError as exc:
        print(exc)
        return 2
    # Simulation kernel tier: install it (module global + environment,
    # inherited by workers).  A mistyped
    # REPRO_KERNEL_TIER is a usage error, caught before any attempt.
    from repro.mem.kernels import configure_kernels

    try:
        configure_kernels(tier=args.kernel_tier)
    except ValueError as exc:
        print(exc)
        return 2

    wanted = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in wanted if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; choices: {list(EXPERIMENTS)}")
        return 2

    if args.lease_ttl_seconds <= 0:
        print("--lease-ttl-seconds must be positive")
        return 2

    if args.quiet:
        console.set_quiet(True)

    # Arm the deterministic I/O fault injector when REPRO_IOFAULT is
    # set (testing and the chaos harness only; a no-op otherwise).
    install_from_env()

    run_dir = args.resume or args.run_dir
    store = CheckpointStore(run_dir) if run_dir else None

    # Out-of-core trace streaming: install the ambient configuration
    # (module global + environment, so worker processes inherit it).
    # Under --run-dir/--resume the shards and simulator checkpoints
    # live inside the run directory, which keeps them on the same
    # filesystem as the journal and lets resume find the mid-simulation
    # snapshots of a killed attempt.
    if args.stream:
        from repro.mem.shards import configure_streaming

        if store is not None:
            stream_dir = store.run_dir / "stream"
        else:
            stream_dir = Path(
                tempfile.mkdtemp(prefix="repro-stream-")
            )
        configure_streaming(stream_dir, shard_refs=args.shard_refs)

    # Campaign telemetry: on by default, off with --no-obs; the
    # REPRO_OBS environment variable overrides in either direction.
    obs_metrics.set_obs_enabled(not args.no_obs)
    obs_on = obs_metrics.obs_enabled()
    if obs_on:
        obs_metrics.get_registry().reset()
    span_writer = None
    if store is not None and obs_on:
        try:
            span_writer = obs_tracing.SpanWriter(
                store.run_dir / obs_tracing.SPANS_FILENAME
            )
        except OSError as exc:
            console.warning(f"[obs] spans.jsonl unavailable: {exc}")
    if obs_on:
        obs_tracing.configure(writer=span_writer)

    # Temporal working-set telemetry: per-chunk rows land in
    # <run_dir>/timeline.jsonl (a framed record log, like events.jsonl);
    # workers inherit the file via REPRO_TIMELINE.
    from repro.obs import timeline as obs_timeline

    if store is not None and obs_on:
        try:
            obs_timeline.configure_timeline(
                store.run_dir / obs_timeline.TIMELINE_FILENAME
            )
        except OSError as exc:
            console.warning(f"[obs] timeline.jsonl unavailable: {exc}")

    # Crash consistency for checkpointed campaigns: replay the journal
    # (truncating any torn tail), take the supervisor lease with a
    # bumped fencing token, and hand both to the engine.
    recovery = None
    lease = None
    journal = None
    if store is not None:
        try:
            recovery = recover(store.run_dir)
        except JournalCorruptError as exc:
            print(f"journal unusable: {exc}")
            print(
                "refusing to run against a corrupt journal; inspect "
                f"{store.run_dir / JOURNAL_FILENAME} (validate subcommand), "
                "then delete it to fall back to checkpoint-presence resume"
            )
            return 1
        try:
            lease = Lease.acquire(
                store.run_dir,
                ttl_seconds=args.lease_ttl_seconds,
                token_floor=recovery.last_token if recovery else 0,
            )
        except LeaseHeldError as exc:
            print(f"lease refused: {exc}")
            return 1
        lease.start_heartbeat()
        journal = Journal(
            store.run_dir / JOURNAL_FILENAME, token=lease.token
        )
        if recovery is not None:
            if not recovery.clean:
                print(recovery.render())
            journal.append("recovered", **recovery.to_dict())

    event_log = EventLog(store.events_path) if store is not None else None
    engine = CampaignEngine(
        EXPERIMENTS,
        quick_overrides=QUICK_OVERRIDES,
        config=EngineConfig(
            quick=args.quick,
            budget_seconds=args.budget_seconds,
            max_attempts=args.max_attempts,
            jobs=args.jobs,
            validate=args.validate,
            hard_timeout_seconds=args.hard_timeout_seconds,
            max_rss_mb=args.max_rss_mb,
        ),
        store=store,
        faults=FaultInjector(plan=fault_plan) if fault_plan else None,
        on_event=_print_event,
        event_log=event_log,
        journal=journal,
        recovery=recovery,
    )
    try:
        report = engine.run(wanted)
    except KeyboardInterrupt:
        # The engine has already killed workers, flushed completed
        # outcomes, written the partial summary, and emitted the
        # interrupted event (printed above).
        return 1
    finally:
        if obs_on:
            obs_tracing.shutdown()  # closes the span writer too
        obs_timeline.configure_timeline(None)
        if event_log is not None:
            event_log.close()
        if journal is not None:
            journal.close()
        if lease is not None:
            lease.release()
    if args.archive is not None and store is not None:
        # Cross-campaign perf archive: one attributed row per finished
        # campaign.  Failure to append is a warning, never a campaign
        # failure — the simulation results are already checkpointed.
        from repro.obs import archive as obs_archive

        try:
            appended = obs_archive.append_rows(
                args.archive, obs_archive.campaign_rows(store.run_dir)
            )
            console.info(
                f"[archive] {appended} row(s) appended to {args.archive}"
            )
        except (OSError, ValueError) as exc:
            console.warning(f"[archive] append failed: {exc}")
    if report.degraded_ids or report.failed_ids:
        print(report.render())
    return 0 if report.succeeded else 1


def cli() -> int:
    """Console-script entry point (``repro-experiments``)."""
    return main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
