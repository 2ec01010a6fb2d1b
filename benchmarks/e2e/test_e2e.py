"""Self-tests of the end-to-end benchmark.

Not part of the tier-1 suite; run by path::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import layers  # noqa: E402
import run  # noqa: E402


def _process(pid, ppid, spans):
    return {"pid": pid, "ppid": ppid, "spans": spans}


def test_self_time_harness_rule_and_unattributed():
    # A supervisor (pid 10) runs one attempt; its worker (pid 11) runs
    # fig6, which feeds a profile whose guarded chunk is shadow-replayed.
    supervisor = _process(10, 1, [
        ["process", 0.0, 10.0, -1, 1, None, None],
        ["runtime.attempt", 1.0, 9.0, -1, 2, 1, None],  # pool thread
    ])
    worker = _process(11, 10, [
        ["process", 1.5, 8.5, -1, 1, None, None],
        ["experiments.fig6", 2.0, 8.0, 0, 1, None, None],
        ["mem.stackdist", 3.0, 7.0, 1, 1, 100, None],
        ["mem.kernels.guard", 3.5, 6.5, 2, 1, 100, True],
        ["mem.kernels.math", 3.625, 4.625, 3, 1, 100, None],
        ["mem.stackdist", 4.625, 6.375, 3, 1, 100, None],  # oracle replay
        ["mem.kernels.guard", 4.75, 4.875, 5, 1, 100, False],  # nested: not a call
    ])
    out = layers.layer_metrics(layers.link([supervisor, worker]), wall_s=10.5)
    assert out["process.self_s"] == pytest.approx(2.0 + 1.0)
    assert out["runtime.spawn_s"] == pytest.approx(1.0)
    assert out["experiments.self_s"] == pytest.approx(2.0)
    assert out["mem.stackdist_s"] == pytest.approx(1.0)
    assert out["mem.kernels.math_s"] == pytest.approx(1.0)
    # guard self 0.25 + replay self 1.625 + nested guard 0.125
    assert out["mem.kernels.harness_s"] == pytest.approx(2.0)
    assert out["mem.kernels.harness.fig6_s"] == pytest.approx(2.0)
    assert out["unattributed_s"] == pytest.approx(0.5)
    assert out["mem.refs"] == 100
    assert out["mem.kernels.calls"] == 1
    assert out["mem.kernels.vector_calls"] == 1
    assert out["mem.kernels.replayed_refs"] == 100
    assert out["mem.kernels.replay_frac"] == pytest.approx(1.0)
    assert out["runtime.attempts"] == 1
    assert out["runtime.attempt_s"] == pytest.approx(8.0)
    assert out["runtime.worker_overhead_s"] == pytest.approx(2.0)
    assert out["experiments.fig6_s"] == pytest.approx(6.0)
    assert sum(out[name] for name in layers.BUCKETS) + out["unattributed_s"] == pytest.approx(10.5)


def test_canonical_digest_ignores_int_float_spelling():
    result = {
        "experiment_id": "x",
        "title": "t",
        "curves": [{"capacities": [256, 512], "miss_rates": [1, 0.5], "metric": "miss_rate", "label": ""}],
        "comparisons": [{"quantity": "q", "paper_value": 256, "measured_value": 256, "unit": "B", "note": ""}],
    }
    floats = json.loads(json.dumps(result))
    floats["curves"][0]["miss_rates"] = [1.0, 0.5]
    floats["comparisons"][0].update(paper_value=256.0, measured_value=256.0)
    assert json.dumps(result) != json.dumps(floats)
    assert run.canonical_digest(result) == run.canonical_digest(floats)


def test_wrappers_do_not_change_results(tmp_path):
    digests = []
    for traced in (False, True):
        trace_dir = tmp_path / f"spans-{traced}"
        trace_dir.mkdir()
        out = tmp_path / f"fig2-{traced}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "fig2_lu", '{"validate_n": 64}', str(out)]
        env = run.child_environment(trace_dir if traced else None)
        child = run.run_child(cmd, env, tmp_path, 120.0, tmp_path / "child.log")
        assert child.code == 0, child.log_tail()
        digests.append(run.canonical_digest(json.loads(out.read_text())["result"]))
        spans, cost_s = layers.load(trace_dir)
        assert ("experiments.fig2" in {s.name for s in spans}) == traced
        assert 0 <= cost_s < 0.1
    assert digests[0] == digests[1]


def test_benchmark_json_names_match_run_py():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert name.match(entry["name"]), entry["name"]
    emitted = layers.layer_metrics([], wall_s=1.0)
    assert set(run.PER_LAYER) - set(emitted) == {"trace_overhead_pct"}


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([10.0, 10.1, 10.2], [10.0, 10.1, 10.2], "same"),
        ([10.0, 10.1, 10.2], [12.0, 12.1, 12.2], "worse"),
        ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "better"),
        ([10.0, 14.0, 18.0], [10.5, 14.5, 18.5], "unresolved"),
    ],
)
def test_compare_verdicts(a, b, expected):
    assert run.verdict(run.summarize(a, "s"), run.summarize(b, "s"), bound=0.1) == expected
