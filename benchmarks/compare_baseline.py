"""Compare a benchmark run against the committed baseline.

Usage::

    python benchmarks/compare_baseline.py CURRENT [BASELINE]
        [--metric refs_per_second] [--max-regression-pct PCT]

``CURRENT`` and ``BASELINE`` are ``BENCH_results.json`` files as
written by ``benchmarks/conftest.py``; ``BASELINE`` defaults to the
committed ``BENCH_baseline.json`` at the repository root.  For every
benchmark present in both files the tool prints the throughput delta
(``extra_info.refs_per_second`` where the benchmark records it, mean
wall time otherwise).

By default this is a *report*: exit 0 regardless of deltas, because CI
runners have wildly variable performance and a hard gate on shared
hardware flakes.  Pass ``--max-regression-pct`` to turn it into a gate
that fails when any throughput benchmark regresses more than PCT
percent against the baseline.

The vectorized simulation-kernel rows (``bench_kernel_*`` from
``benchmarks/bench_kernels.py``) are gated harder: they always fail
the comparison when regressing more than ``--kernel-regression-pct``
(default 10%), even in report mode — a kernel slowdown silently
erodes the whole campaign, so it is never just informational.  Pass
``--kernel-regression-pct 0`` to disable the kernel gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Default committed baseline, relative to the repository root.
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"


def _load(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    return {b["name"]: b for b in payload.get("benchmarks", [])}


def _throughput(entry: dict) -> float | None:
    value = entry.get("extra_info", {}).get("refs_per_second")
    return float(value) if isinstance(value, (int, float)) else None


def _mean(entry: dict) -> float | None:
    value = entry.get("stats", {}).get("mean")
    return float(value) if isinstance(value, (int, float)) else None


def compare(current_path: Path, baseline_path: Path) -> list[dict]:
    """One comparison row per benchmark present in both files.

    Each row carries ``delta_pct`` signed so that positive is *better*
    (more refs/second, or less mean wall time).
    """
    current = _load(current_path)
    baseline = _load(baseline_path)
    rows: list[dict] = []
    for name in sorted(set(current) & set(baseline)):
        cur, base = current[name], baseline[name]
        cur_tp, base_tp = _throughput(cur), _throughput(base)
        if cur_tp is not None and base_tp not in (None, 0.0):
            delta = 100.0 * (cur_tp - base_tp) / base_tp
            rows.append(
                {
                    "name": name,
                    "metric": "refs_per_second",
                    "baseline": base_tp,
                    "current": cur_tp,
                    "delta_pct": delta,
                }
            )
            continue
        cur_mean, base_mean = _mean(cur), _mean(base)
        if cur_mean not in (None, 0.0) and base_mean is not None:
            delta = 100.0 * (base_mean - cur_mean) / cur_mean
            rows.append(
                {
                    "name": name,
                    "metric": "mean_seconds",
                    "baseline": base_mean,
                    "current": cur_mean,
                    "delta_pct": delta,
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", metavar="CURRENT", type=Path)
    parser.add_argument(
        "baseline",
        metavar="BASELINE",
        type=Path,
        nargs="?",
        default=DEFAULT_BASELINE,
    )
    parser.add_argument(
        "--max-regression-pct",
        type=float,
        default=None,
        metavar="PCT",
        help="fail when any throughput benchmark regresses more than "
        "PCT%% (default: report only, never fail)",
    )
    parser.add_argument(
        "--kernel-regression-pct",
        type=float,
        default=10.0,
        metavar="PCT",
        help="fail when a bench_kernel_* row regresses more than PCT%% "
        "(default: 10; 0 disables the kernel gate)",
    )
    args = parser.parse_args(argv)
    for path in (args.current, args.baseline):
        if not path.is_file():
            print(f"compare_baseline: {path} does not exist", file=sys.stderr)
            return 2

    rows = compare(args.current, args.baseline)
    if not rows:
        print("compare_baseline: no benchmarks in common with the baseline")
        return 0
    width = max(len(r["name"]) for r in rows)
    print(f"{'benchmark':<{width}}  {'metric':<16} {'baseline':>14} "
          f"{'current':>14} {'delta':>8}")
    worst = 0.0
    for row in rows:
        print(
            f"{row['name']:<{width}}  {row['metric']:<16} "
            f"{row['baseline']:>14,.1f} {row['current']:>14,.1f} "
            f"{row['delta_pct']:>+7.1f}%"
        )
        worst = min(worst, row["delta_pct"])
    print(f"worst delta: {worst:+.1f}% (positive is faster than baseline)")
    if (
        args.max_regression_pct is not None
        and worst < -abs(args.max_regression_pct)
    ):
        print(
            f"FAIL: regression {worst:+.1f}% exceeds the "
            f"{args.max_regression_pct:.1f}% budget",
            file=sys.stderr,
        )
        return 1
    kernel_rows = [r for r in rows if r["name"].startswith("bench_kernel_")]
    if args.kernel_regression_pct and kernel_rows:
        worst_kernel = min(r["delta_pct"] for r in kernel_rows)
        if worst_kernel < -abs(args.kernel_regression_pct):
            print(
                f"FAIL: kernel regression {worst_kernel:+.1f}% exceeds the "
                f"{args.kernel_regression_pct:.1f}% kernel budget",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
