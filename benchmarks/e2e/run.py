"""End-to-end benchmark: the host time, set-up time and memory it takes
to regenerate the paper's artifacts, with a traced per-layer split.

Usage (from the repository root)::

    python benchmarks/e2e/run.py                      # every workload, 3 passes
    python benchmarks/e2e/run.py --out A.json         # ... and keep every sample
    python benchmarks/e2e/run.py --trace              # per-layer table per workload
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --workload figures --seed 7 --seconds 10 --trace 0

A pass runs one workload once, each experiment in a fresh process, one
process at a time (a closed loop with one client).  Passes repeat up to
:data:`REPEAT` while fewer than ``--seconds`` have been measured; metrics
are medians over passes.  ``--seed S`` picks the seed of fig6, assoc
and bh-phases from a pool (see :data:`WORKLOADS`); the campaign takes
no seed.  Every result is validated with ``validate_result`` and its
digest compared with ``golden.json``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics, or with ``--trace`` the per-layer metrics of one
traced pass).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SITE = HERE / "site"
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".e2e-work"
TRACE_DIR_ENV = "E2E_TRACE_DIR"

#: Fresh-process workloads: (experiment module, seed pool or None).
#: ``--seed S`` runs a seeded experiment with ``pool[S % len(pool)]``; the
#: pool starts with the paper's own seed, and the others were picked
#: because their Barnes-Hut traces are within 1% of its length, so a
#: run's work does not depend on S.  ``campaign-quick`` is the CLI
#: campaign instead, which takes no seed.
WORKLOADS: Dict[str, Optional[List[Tuple[str, Optional[List[int]]]]]] = {
    "campaign-quick": None,
    "figures": [
        ("fig2_lu", None),
        ("fig4_cg", None),
        ("fig5_fft", None),
        ("fig6_barneshut", [2, 9, 12, 15]),
        ("fig7_volrend", None),
    ],
    "caches": [
        ("assoc_study", [3, 22, 63, 85]),
        ("hierarchy_design", None),
        ("bh_phases", [5, 15, 35, 37]),
    ],
}

#: End-to-end metrics (name -> unit); all host time or host memory.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Per-layer metrics printed on the last line of a traced run: the ones
#: that are measured on every workload (see README.md for the rest).
PER_LAYER = {
    "trace.wall_s": "s",
    "trace_overhead_pct": "%",
    "unattributed_s": "s",
    "process.self_s": "s",
    "experiments.self_s": "s",
    "apps.generate_s": "s",
    "apps.refs": "count",
    "apps.refs_per_s": "1/s",
    "mem.refs": "count",
    "mem.stackdist_s": "s",
    "mem.kernels.math_s": "s",
    "mem.kernels.harness_s": "s",
    "mem.kernels.calls": "count",
    "mem.kernels.vector_calls": "count",
    "mem.kernels.replayed_refs": "count",
    "mem.kernels.replay_frac": "ratio",
    "core.curves_s": "s",
    "runtime.attempts": "count",
    "obs.timeline_rows": "count",
}

SETUP_PROBES = 5
#: Passes per workload, unless ``--seconds`` ends the run sooner.
REPEAT = 3
CHILD_TIMEOUT_S = 150.0
#: One ``--workload`` invocation must end within 180 s.
INVOCATION_DEADLINE_S = 170.0


# -- processes --------------------------------------------------------------


def child_environment(trace_dir: Optional[Path] = None) -> Dict[str, str]:
    """The environment every child runs with.

    Every ``REPRO_*`` and ``PYTHON*`` variable is dropped: an inherited
    ``REPRO_KERNEL_VERIFY=0``, for one, makes fig6 ~9x faster and
    measures a different program.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON", "E2E_"))
    }
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.insert(0, str(SITE))
        env[TRACE_DIR_ENV] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _descendants(pid: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def _kill_tree(pid: int) -> List[int]:
    """SIGKILL ``pid`` and every descendant (campaign workers run in
    their own process groups, so a group kill would miss them)."""
    victims = _descendants(pid)
    for victim in [pid] + victims:
        try:
            os.kill(victim, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return victims


def _wait_gone(pids: List[int], timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and any(Path(f"/proc/{p}").exists() for p in pids):
        time.sleep(0.05)


@dataclass
class Child:
    """One finished child process."""

    code: Optional[int]  # exit code; None when killed at its timeout
    wall_s: float
    rss_mb: float  # peak RSS over the child and its reaped descendants
    log: Path

    def log_tail(self, lines: int = 15) -> str:
        try:
            text = self.log.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


def run_child(cmd: List[str], env: Dict[str, str], cwd: Path, timeout: float, log: Path) -> Child:
    """Run ``cmd`` to completion, killing its whole tree at ``timeout``."""
    victims: List[int] = []
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        victims.extend(_kill_tree(proc.pid))

    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        timer = threading.Timer(max(timeout, 0.0), expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            victims.extend(_kill_tree(proc.pid))
            proc.wait()
            _wait_gone(victims)
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    _wait_gone(victims)
    code = None if expired.is_set() else proc.returncode
    return Child(code, wall_s, usage.ru_maxrss / 1024.0, log)


# -- correctness ------------------------------------------------------------


def canonical_digest(result: dict) -> str:
    """SHA-256 of a result in canonical form.

    The round trip through ``ExperimentResult`` is required: the worker
    pool stores ``256.0`` where an in-process run stores ``256``.
    """
    from repro.experiments.runner import ExperimentResult

    canonical = ExperimentResult.from_dict(result).to_dict()
    return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode("utf-8")).hexdigest()


def golden_key(experiment_id: str, seed: Optional[int]) -> str:
    return experiment_id if seed is None else f"{experiment_id}/seed={seed}"


def check_result(result: dict, key: str, golden: Dict[str, str]) -> Tuple[str, Optional[str]]:
    """(digest, failure reason or None) for one experiment result."""
    from repro.experiments.runner import ExperimentResult
    from repro.validate.oracles import validate_result

    report = validate_result(ExperimentResult.from_dict(result))
    digest = canonical_digest(result)
    if not report.ok:
        return digest, "validate_result: " + "; ".join(f.render() for f in report.errors)
    if key not in golden:
        return digest, "no golden digest"
    if golden[key] != digest:
        return digest, f"digest {digest[:12]} != golden {golden[key][:12]}"
    return digest, None


# -- passes -----------------------------------------------------------------


class Pass:
    """One run of one workload."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.attempted = 0
        self.failures: Dict[str, str] = {}
        self.digests: Dict[str, str] = {}

    def record(self, experiment_id: str, result: Optional[dict], seed: Optional[int],
               golden: Dict[str, str], reason: Optional[str] = None) -> None:
        self.attempted += 1
        key = golden_key(experiment_id, seed)
        if result is not None:
            self.digests[key], reason = check_result(result, key, golden)
        if reason is not None:
            self.failures[key] = reason


def _remaining(deadline: Optional[float]) -> float:
    if deadline is None:
        return CHILD_TIMEOUT_S
    return min(CHILD_TIMEOUT_S, deadline - time.monotonic())


def campaign_pass(work: Path, env: Dict[str, str], golden: Dict[str, str],
                  deadline: Optional[float]) -> Pass:
    from repro.experiments.__main__ import EXPERIMENTS
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.errors import CheckpointCorruptError

    run_dir = work / "run"
    cmd = [sys.executable, "-m", "repro.experiments", "--quick", "--quiet",
           "--jobs", "1", "--run-dir", str(run_dir)]
    child = run_child(cmd, env, work, _remaining(deadline), work / "campaign.log")
    result = Pass()
    result.wall_s, result.rss_mb = child.wall_s, child.rss_mb
    store = CheckpointStore(run_dir)
    for experiment_id in EXPERIMENTS:
        if child.code is None:
            result.record(experiment_id, None, None, golden, "campaign killed at its timeout")
            continue
        try:
            outcome = store.load_outcome(experiment_id)
        except CheckpointCorruptError as exc:
            result.record(experiment_id, None, None, golden, f"no result: {exc}")
            continue
        if outcome.status != "ok" or outcome.result is None:
            result.record(experiment_id, None, None, golden, f"status {outcome.status}")
            continue
        result.record(experiment_id, outcome.result.to_dict(), None, golden)
    if child.code not in (0, None) and not result.failures:
        result.failures["campaign"] = f"exit {child.code}: {child.log_tail()}"
    return result


def fresh_process_pass(workload: str, work: Path, env: Dict[str, str], seed: Optional[int],
                       golden: Dict[str, str], deadline: Optional[float]) -> Pass:
    result = Pass()
    for module, pool in WORKLOADS[workload]:
        kwargs = {"seed": pool[seed % len(pool)]} if pool and seed is not None else {}
        out = work / f"{module}.json"
        cmd = [sys.executable, str(HERE / "child.py"), module, json.dumps(kwargs), str(out)]
        child = run_child(cmd, env, work, _remaining(deadline), work / f"{module}.log")
        result.wall_s += child.wall_s
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        if child.code is None:
            result.record(module, None, None, golden, "killed at its timeout")
        elif child.code != 0:
            result.record(module, None, None, golden, f"exit {child.code}: {child.log_tail()}")
        else:
            payload = json.loads(out.read_text(encoding="utf-8"))
            experiment_id = payload["result"]["experiment_id"]
            result.record(experiment_id, payload["result"], payload["seed"], golden)
    return result


def run_pass(workload: str, work: Path, seed: Optional[int], golden: Dict[str, str],
             deadline: Optional[float], trace_dir: Optional[Path] = None) -> Pass:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    env = child_environment(trace_dir)
    if WORKLOADS[workload] is None:
        return campaign_pass(work, env, golden, deadline)
    return fresh_process_pass(workload, work, env, seed, golden, deadline)


def measure_setup(work: Path, deadline: Optional[float]) -> List[float]:
    """Fresh interpreter + ``import repro.experiments.__main__``: one
    untimed warm-up, then :data:`SETUP_PROBES` timed probes."""
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "-c", "import repro.experiments.__main__"]
    env = child_environment()
    samples = []
    for probe in range(SETUP_PROBES + 1):
        child = run_child(cmd, env, work, _remaining(deadline), work / "setup.log")
        if child.code != 0:
            raise RuntimeError(f"setup probe failed: {child.log_tail()}")
        if probe:
            samples.append(child.wall_s)
    return samples


# -- statistics -------------------------------------------------------------


def summarize(samples: List[float], unit: str) -> dict:
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"unit": unit, "samples": samples, "median": statistics.median(samples),
            "q1": q1, "q3": q3}


def run_workload(workload: str, seed: Optional[int], seconds: float, trace: bool,
                 golden: Dict[str, str], deadline: Optional[float]) -> dict:
    """Measure one workload; returns its record for the output JSON."""
    work = WORK / f"{os.getpid()}-{workload}"
    record: dict = {"seed": seed}
    passes: List[Pass] = []
    try:
        if trace:
            trace_dir = work / "spans"
            trace_dir.mkdir(parents=True)
            passes = [run_pass(workload, work / "pass", seed, golden, deadline, trace_dir)]
            from layers import layer_metrics, load

            spans, cost_s = load(trace_dir)
            wall_s = passes[0].wall_s
            layers = layer_metrics(spans, wall_s)
            layers["trace_overhead_pct"] = 100.0 * cost_s / (wall_s - cost_s)
            record["layers"] = layers
        else:
            setup = measure_setup(work / "setup", deadline)
            started = time.perf_counter()
            while len(passes) < REPEAT and (not passes or time.perf_counter() - started < seconds):
                passes.append(run_pass(workload, work / "pass", seed, golden, deadline))
            record["metrics"] = {
                "wall_s": summarize([p.wall_s for p in passes], "s"),
                "setup_s": summarize(setup, "s"),
                "peak_rss_mb": summarize([p.rss_mb for p in passes], "MiB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only once no other run is using it
        except OSError:
            pass
    attempted = sum(p.attempted for p in passes)
    failures = {f"pass{i}/{k}": v for i, p in enumerate(passes) for k, v in p.failures.items()}
    digests = [p.digests for p in passes]
    if any(d != digests[0] for d in digests):
        failures["determinism"] = "digests differ between passes"
    failed = sum(len(p.failures) for p in passes) + ("determinism" in failures)
    record.update(passes=len(passes), attempted=attempted, failed=failed, failures=failures,
                  digests=digests[0])
    if "metrics" in record:
        record["metrics"]["failed_frac"] = summarize([failed / attempted], "ratio")
    return record


# -- reporting --------------------------------------------------------------


def environment_record(trace: bool) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        sha = proc.stdout.strip() or None
    env = child_environment(WORK / "spans" if trace else None)
    return {
        "interpreter": sys.executable,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "child_timeout_s": CHILD_TIMEOUT_S,
        "environment": {
            k: v for k, v in sorted(env.items())
            if k.startswith(("PYTHON", "REPRO_", "E2E_")) or k.endswith("_NUM_THREADS")
        },
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_metrics(workload: str, record: dict) -> None:
    print(f"\n== {workload}: {record['passes']} pass(es), seed {record['seed']}, "
          f"{record['failed']}/{record['attempted']} failed")
    for name, entry in record["metrics"].items():
        print(f"  {name:<12} {entry['unit']:<6} median {_fmt(entry['median']):>10}"
              f"  q1 {_fmt(entry['q1']):>10}  q3 {_fmt(entry['q3']):>10}  n {len(entry['samples'])}")
    for key, reason in record["failures"].items():
        print(f"  FAILED {key}: {reason}")


def print_layers(workload: str, record: dict) -> None:
    from layers import BUCKETS

    layers = record["layers"]
    wall = layers["trace.wall_s"]
    print(f"\n== {workload} (traced): wall {_fmt(wall)} s, overhead "
          f"{layers['trace_overhead_pct']:.1f}%, {record['failed']}/{record['attempted']} failed")
    for name in BUCKETS + ("unattributed_s",):
        print(f"  {name:<28} {layers[name]:>9.3f} s  {100 * layers[name] / wall:5.1f}%")
    for name, value in layers.items():
        if name not in BUCKETS and name not in ("unattributed_s", "trace.wall_s",
                                                "trace_overhead_pct"):
            print(f"  {name:<28} {_fmt(value):>9}")
    for key, reason in record["failures"].items():
        print(f"  FAILED {key}: {reason}")


def result_line(records: Dict[str, dict], trace: bool) -> dict:
    """The last stdout line; metric names get a ``<workload>.`` prefix
    when more than one workload ran."""
    metrics = {}
    for workload, record in records.items():
        prefix = "" if len(records) == 1 else workload + "."
        if trace:
            for name, unit in PER_LAYER.items():
                metrics[prefix + name] = {"value": record["layers"][name], "unit": unit}
        else:
            for name, unit in END_TO_END.items():
                metrics[prefix + name] = {"value": record["metrics"][name]["median"], "unit": unit}
    failed = sum(r["failed"] for r in records.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": failed,
        "metrics": metrics,
    }


# -- compare ----------------------------------------------------------------


def verdict(a: dict, b: dict, bound: float, better: str = "lower", absolute: bool = False) -> str:
    """better / same / worse / unresolved for B against A.

    Worse: B's median is worse than A's by more than ``bound`` (a share
    of A's median, or an absolute amount).  Unresolved: either side's
    quartile spread exceeds the bound, unless every B sample beats (or
    loses to) every A sample.  Better: B wins at least 9 of 10 sample
    pairs and the medians differ by more than A's quartile spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    a_med, b_med = a["median"], b["median"]
    scale = 1.0 if absolute or a_med == 0 else abs(a_med)
    worse_by = sign * (b_med - a_med) / scale
    pairs = [(x, y) for x in a["samples"] for y in b["samples"]]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if not absolute:
        spread = max((s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0 for s in (a, b))
        if spread > bound and wins < len(pairs) and losses < len(pairs):
            return "unresolved"
    if worse_by > bound:
        return "worse"
    if wins >= 0.9 * len(pairs) and abs(b_med - a_med) > (a["q3"] - a["q1"]):
        return "better"
    return "same"


def compare(path_a: Path, path_b: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"], False) for m in spec["end_to_end"]}
    bounds["failed_frac"] = (0.0, "lower", True)
    a = json.loads(path_a.read_text(encoding="utf-8"))["workloads"]
    b = json.loads(path_b.read_text(encoding="utf-8"))["workloads"]
    rows, worse = [], False
    print(f"{'workload':<15} {'metric':<12} {'A median':>10} {'A q1..q3':>21} "
          f"{'B median':>10} {'B q1..q3':>21} {'bound':>6}  verdict")
    for workload in a:
        if workload not in b or "metrics" not in a[workload] or "metrics" not in b[workload]:
            continue
        for name, (bound, better, absolute) in bounds.items():
            ma, mb = a[workload]["metrics"][name], b[workload]["metrics"][name]
            v = verdict(ma, mb, bound, better, absolute)
            worse |= v == "worse"
            rows.append(v)
            print(f"{workload:<15} {name:<12} {_fmt(ma['median']):>10} "
                  f"{_fmt(ma['q1']) + '..' + _fmt(ma['q3']):>21} {_fmt(mb['median']):>10} "
                  f"{_fmt(mb['q1']) + '..' + _fmt(mb['q3']):>21} "
                  f"{f'{bound:g} abs' if absolute else f'{bound:.0%}':>6}  {v}")
    if not rows:
        print("no workload measured in both files")
        return 2
    return 1 if worse else 0


# -- main -------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for fig6, assoc and bh-phases (default: their own)")
    parser.add_argument("--seconds", type=float, default=math.inf,
                        help="start no new pass after this many measured seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="one traced pass per workload, printing per-layer metrics")
    parser.add_argument("--out", type=Path, help="write every sample to this JSON file")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two --out files; exit 1 if any metric got worse")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "experiments" / "__main__.py").is_file():
        print(f"run.py: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Unwind on SIGTERM too, so the running child's tree is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + INVOCATION_DEADLINE_S if args.workload else None
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = {}
    for workload in workloads:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                              golden.get(workload, {}), deadline)
        records[workload] = record
        (print_layers if args.trace else print_metrics)(workload, record)
    if args.out is not None:
        args.out.write_text(json.dumps({"environment": environment_record(bool(args.trace)),
                                        "workloads": records}, indent=1) + "\n")
    print(json.dumps(result_line(records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
