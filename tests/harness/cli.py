"""``python -m tests.harness.cli``: the campaign CLI with the harness armed.

Three forms, each run from the repository root with ``PYTHONPATH=src``::

    python -m tests.harness.cli chaos --cycles 10 --enospc-cycles 1 --seed 3
    python -m tests.harness.cli fuzz --cases 500 --seed 0
    python -m tests.harness.cli [--loops-only] \
        [--inject-fault ID=KIND[:ATTEMPTS]]... ARGS...

The last form arms the I/O fault injector from ``REPRO_IOFAULT``
(:mod:`tests.harness.iofault`), with ``--loops-only`` holds every
experiment's simulators to their per-reference loops
(:mod:`tests.harness.loops`), swaps each ``--inject-fault`` experiment
for a failing runner (:mod:`tests.harness.faulty`), and then runs the
real :func:`repro.experiments.__main__.main` on ARGS, so the harness
hits the code users run.  Exit codes are the real CLI's; the
gates exit 0 on a pass, 1 on a failure and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from typing import List, Optional

from repro.experiments import __main__ as product


def _parse(parser: argparse.ArgumentParser, argv: List[str]):
    try:
        return parser.parse_args(argv), None
    except SystemExit as exc:
        return None, int(exc.code or 0)


def chaos_command(argv: List[str]) -> int:
    from tests.harness.chaos import DEFAULT_EXPERIMENTS, run_chaos

    parser = argparse.ArgumentParser(prog="python -m tests.harness.cli chaos")
    parser.add_argument("--cycles", type=int, default=10)
    parser.add_argument("--enospc-cycles", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--experiments", default=",".join(DEFAULT_EXPERIMENTS))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--work-dir", default=None)
    parser.add_argument("--timeout", type=float, default=300.0)
    args, code = _parse(parser, argv)
    if args is None:
        return code
    if min(args.cycles, args.enospc_cycles) < 0:
        print("--cycles and --enospc-cycles must be >= 0")
        return 2
    if args.cycles + args.enospc_cycles < 1:
        print("nothing to do: --cycles + --enospc-cycles must be >= 1")
        return 2
    experiments = [e for e in args.experiments.split(",") if e]
    unknown = [e for e in experiments if e not in product.EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}")
        return 2
    report = run_chaos(
        cycles=args.cycles,
        seed=args.seed,
        experiments=experiments,
        jobs=args.jobs,
        enospc_cycles=args.enospc_cycles,
        work_dir=args.work_dir,
        timeout=args.timeout,
    )
    print(report.render())
    if not report.passed:
        print(f"[failing run directories kept under {report.work_dir}]")
    return 0 if report.passed else 1


def fuzz_command(argv: List[str]) -> int:
    from tests.harness.fuzz import run_fuzz

    parser = argparse.ArgumentParser(prog="python -m tests.harness.cli fuzz")
    parser.add_argument("--cases", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true")
    args, code = _parse(parser, argv)
    if args is None:
        return code
    if args.cases < 1:
        print("--cases must be >= 1")
        return 2
    report = run_fuzz(cases=args.cases, seed=args.seed)
    if args.json:
        import json

        print(json.dumps(report.to_validation_report().to_dict(), indent=1))
    else:
        print(report.render())
    return 0 if report.ok else 1


GATES = {"chaos": chaos_command, "fuzz": fuzz_command}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in GATES:
        return GATES[argv[0]](argv[1:])
    from tests.harness import faulty, iofault, loops

    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    parser.add_argument("--inject-fault", action="append", default=[])
    parser.add_argument("--loops-only", action="store_true")
    args, rest = parser.parse_known_args(argv)
    try:
        plan = faulty.parse_plan(args.inject_fault)
    except ValueError as exc:
        print(exc)
        return 2
    unknown = [name for name in plan if name not in product.EXPERIMENTS]
    if unknown:
        print(f"--inject-fault: unknown experiments {unknown}")
        return 2
    iofault.install_from_env()
    if not (plan or args.loops_only):
        return product.main(rest)
    saved = dict(product.EXPERIMENTS)
    armed = loops.arm(saved) if args.loops_only else saved
    fault_dir = tempfile.mkdtemp(prefix="repro-faults-") if plan else None
    if plan:
        armed = faulty.arm(armed, plan, fault_dir)
    product.EXPERIMENTS.update(armed)
    try:
        return product.main(rest)
    finally:
        product.EXPERIMENTS.clear()
        product.EXPERIMENTS.update(saved)
        if fault_dir is not None:
            shutil.rmtree(fault_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
