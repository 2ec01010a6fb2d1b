"""Benchmark configuration.

Every paper table/figure has a ``bench_*`` target that regenerates it
(at validated reduced scale where the artifact requires trace
simulation) and asserts its headline shape, so a benchmark run doubles
as a reproduction run.  Heavy experiments use one round.

Every benchmark session additionally writes a machine-readable
``BENCH_results.json`` (override the location with the
``BENCH_RESULTS_PATH`` environment variable) so CI and regression
tooling can diff timings without scraping the terminal table.  Each
entry carries the benchmark's name, group, timing statistics, and any
``extra_info`` the benchmark attached (e.g. ``refs_per_second`` for
the substrate instruments).
"""

import json
import os
from pathlib import Path

import pytest

#: Environment variable overriding where the JSON results land.
BENCH_RESULTS_ENV = "BENCH_RESULTS_PATH"

#: Default output file, relative to the pytest invocation directory.
BENCH_RESULTS_DEFAULT = "BENCH_results.json"

#: Stats fields exported per benchmark (all floats except rounds).
_STAT_FIELDS = ("min", "max", "mean", "stddev", "median", "ops", "rounds")


def one_shot(benchmark, fn, *args, **kwargs):
    """Run a heavy experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def run_once():
    return one_shot


def _export(bench) -> dict:
    stats = {}
    for field in _STAT_FIELDS:
        value = getattr(bench.stats, field, None)
        if value is not None:
            stats[field] = int(value) if field == "rounds" else float(value)
    return {
        "name": bench.name,
        "fullname": bench.fullname,
        "group": bench.group,
        "stats": stats,
        "extra_info": dict(bench.extra_info),
    }


def pytest_sessionfinish(session, exitstatus):
    """Write ``BENCH_results.json`` after a benchmark run.

    A plain collection run (``--collect-only``) or a run where every
    benchmark was skipped writes nothing.
    """
    benchsession = getattr(session.config, "_benchmarksession", None)
    if benchsession is None or not benchsession.benchmarks:
        return
    payload = {
        "exit_status": int(exitstatus),
        "benchmarks": sorted(
            (_export(bench) for bench in benchsession.benchmarks),
            key=lambda entry: entry["fullname"],
        ),
    }
    path = Path(os.environ.get(BENCH_RESULTS_ENV, BENCH_RESULTS_DEFAULT))
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    terminal = session.config.pluginmanager.get_plugin("terminalreporter")
    if terminal is not None:
        terminal.write_line(
            f"benchmark results written to {path} "
            f"({len(payload['benchmarks'])} benchmark(s))"
        )
