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
    python -m repro.experiments validate runs/full
                                      # full artifact validation of a run dir
    python -m repro.experiments status runs/full --follow
                                      # live per-experiment state/ETA
    python -m repro.experiments report runs/full --html -o report.html
                                      # static post-hoc campaign report

Campaigns are observable by default (``--no-obs`` opts out):
counters/gauges/histograms roll up into
``<run_dir>/metrics.json``, spans into ``<run_dir>/spans.jsonl`` and
per-chunk working-set rows into ``<run_dir>/timeline.jsonl``.  The
``status`` / ``report`` subcommands reconstruct everything read-only
from those artifacts plus the journal, segmenting the timeline into
phases with per-phase knees.  See ``docs/OBSERVABILITY.md``.

Campaigns with a run directory are crash-consistent: every state
transition is written ahead to ``<run_dir>/journal.wal`` (fsynced,
CRC-framed), an exclusive lock on ``supervisor.lock`` refuses a second
supervisor of the same run directory, and ``--resume`` replays the
journal to decide what is committed — a ``kill -9`` at any instruction
loses nothing that was committed and re-runs nothing that was.  See
``docs/DURABILITY.md``.

Exit status: 0 when every experiment finished (possibly degraded),
1 when any experiment ultimately failed after retries or the campaign
was interrupted (Ctrl-C / SIGTERM — completed results are already
checkpointed, so ``--resume`` finishes the remainder), 2 on usage
errors.  The ``validate`` subcommand exits 0 on a clean report, 1 on
findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

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
from repro.runtime.errors import JournalCorruptError
from repro.runtime.journal import (
    JOURNAL_FILENAME,
    Journal,
    lock_holder_pid,
    lock_run_dir,
    recover,
)

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
        "--quiet",
        action="store_true",
        help="suppress progress output (warnings and errors still print)",
    )
    parser.add_argument(
        "--no-obs",
        action="store_true",
        dest="no_obs",
        help="disable campaign telemetry (metrics.json, spans.jsonl, "
        "timeline.jsonl)",
    )
    return parser


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
    checksums, payload schemas, cross-file consistency, the framed
    logs (journal, spans, timeline), saved traces, and the invariant oracles over
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


def status_command(argv: List[str]) -> int:
    """``python -m repro.experiments status <run-dir>``.

    One-shot (or ``--follow``) live view of a campaign run directory:
    per-experiment state, attempt/retry counts, throughput, and ETA,
    reconstructed read-only from ``journal.wal``, ``summary.json``,
    the supervisor lock, and ``metrics.json`` — torn tails and missing
    files degrade the view, never crash it.
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


#: Subcommand names dispatched before experiment-id parsing.  Safe
#: because they can never collide with experiment ids (asserted by the
#: CLI test suite).
SUBCOMMANDS = {
    "validate": validate_command,
    "status": status_command,
    "report": report_command,
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
    wanted = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in wanted if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; choices: {list(EXPERIMENTS)}")
        return 2

    if args.quiet:
        console.set_quiet(True)

    run_dir = args.resume or args.run_dir
    store = CheckpointStore(run_dir) if run_dir else None

    # One supervisor per run directory: take its lock before anything
    # else touches the directory, so a refused run changes nothing.
    lock_fd = None
    if store is not None:
        lock_fd = lock_run_dir(store.run_dir)
        if lock_fd is None:
            print(
                f"lease refused: run directory {store.run_dir} is locked by "
                f"a live supervisor (pid {lock_holder_pid(store.run_dir)}); "
                "refusing to run two supervisors against one run directory"
            )
            return 1
    try:
        return _run_campaign(args, wanted, store)
    finally:
        if lock_fd is not None:
            os.close(lock_fd)


def _run_campaign(
    args: argparse.Namespace,
    wanted: List[str],
    store: Optional[CheckpointStore],
) -> int:
    """Run the campaign ``main`` parsed, holding the run-directory lock."""
    # Campaign telemetry: on by default, off with --no-obs.
    obs_on = not args.no_obs
    obs_metrics.set_obs_enabled(obs_on)
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
    # <run_dir>/timeline.jsonl (a framed record log, like journal.wal);
    # each worker's attempt spec carries the file's path.
    from repro.obs import timeline as obs_timeline

    if store is not None and obs_on:
        try:
            obs_timeline.configure_timeline(
                store.run_dir / obs_timeline.TIMELINE_FILENAME
            )
        except OSError as exc:
            console.warning(f"[obs] timeline.jsonl unavailable: {exc}")

    # Crash consistency for checkpointed campaigns: replay the journal
    # (truncating any torn tail), open it under the next supervisor
    # generation, and hand both to the engine.
    recovery = None
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
        journal = Journal(
            store.run_dir / JOURNAL_FILENAME,
            token=(recovery.last_token if recovery else 0) + 1,
        )
        if recovery is not None:
            if not recovery.clean:
                print(recovery.render())
            journal.append("recovered", **recovery.to_dict())

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
        on_event=_print_event,
        journal=journal,
        recovery=recovery,
    )
    try:
        report = engine.run(wanted)
    except KeyboardInterrupt:
        # The engine has already killed workers, flushed completed
        # outcomes, written the partial summary, and journaled and
        # printed the interruption.
        return 1
    finally:
        if obs_on:
            obs_tracing.shutdown()  # closes the span writer too
        obs_timeline.configure_timeline(None)
        if journal is not None:
            journal.close()
    if report.degraded_ids or report.failed_ids:
        print(report.render())
    return 0 if report.succeeded else 1


def cli() -> int:
    """Console-script entry point (``repro-experiments``)."""
    return main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
