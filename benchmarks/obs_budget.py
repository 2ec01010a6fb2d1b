"""Campaign-level telemetry budget: the default campaign against ``--no-obs``.

Usage::

    python benchmarks/obs_budget.py [--pairs 5] [--max-ratio 1.20] [ID ...]

Runs the ``--quick`` campaign on the default backend (``--jobs 1``:
every attempt in a worker forked from the campaign's fork server, which
ships its spans and metrics back to the supervisor) as alternating
pairs: once with the default settings (metrics, spans and the timeline
on) and once with ``--no-obs``.  Every run gets a fresh
``--run-dir``, since the timeline is written only with one.  The order
within a pair alternates, so drift on a shared host falls on both sides
alike.  Prints each pair's wall times and ratio, then the median ratio
and the ``--no-obs`` median it is relative to; exits 1 when the median
ratio exceeds ``--max-ratio``, 2 when a campaign fails.

Run from the repository root with ``PYTHONPATH=src`` (or an installed
package).
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional


def _campaign(run_dir: Path, ids: List[str], no_obs: bool) -> float:
    """Wall seconds of one default ``--quick`` campaign."""
    cmd = [sys.executable, "-m", "repro.experiments", "--quick", "--quiet",
           "--run-dir", str(run_dir), *ids]
    if no_obs:
        cmd.append("--no-obs")
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        print(f"campaign failed (exit {proc.returncode}): {' '.join(cmd)}",
              file=sys.stderr)
        raise SystemExit(2)
    return wall


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--max-ratio", type=float, default=1.20)
    parser.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    ratios, bases = [], []
    with tempfile.TemporaryDirectory(prefix="obs-budget-") as tmp:
        for pair in range(args.pairs):
            walls = {}
            for no_obs in (False, True) if pair % 2 == 0 else (True, False):
                run_dir = Path(tmp) / f"{pair}-{'no-obs' if no_obs else 'default'}"
                walls[no_obs] = _campaign(run_dir, args.ids, no_obs)
            ratio = walls[False] / walls[True]
            ratios.append(ratio)
            bases.append(walls[True])
            print(f"pair {pair + 1}: default {walls[False]:.2f} s, "
                  f"--no-obs {walls[True]:.2f} s, ratio {ratio:.3f}", flush=True)
    median = statistics.median(ratios)
    print(f"median ratio {median:.3f} over {args.pairs} pair(s) "
          f"(--no-obs median {statistics.median(bases):.2f} s); "
          f"budget {args.max_ratio:.2f}")
    if median > args.max_ratio:
        print(f"telemetry costs {median - 1:.0%} of the --no-obs campaign, "
              f"over the {args.max_ratio - 1:.0%} budget")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
