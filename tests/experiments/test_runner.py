"""Tests for the experiment result structures and the run-everything
entry point."""

import json

import numpy as np
import pytest

from repro.core.curves import MissRateCurve
from repro.experiments.runner import ExperimentResult, SeriesComparison


class TestSeriesComparison:
    def test_ratio(self):
        comp = SeriesComparison("x", paper_value=10.0, measured_value=12.0)
        assert comp.ratio == pytest.approx(1.2)

    def test_ratio_without_paper_value(self):
        comp = SeriesComparison("x", paper_value=None, measured_value=5.0)
        assert comp.ratio is None

    def test_ratio_with_zero_paper_value(self):
        comp = SeriesComparison("x", paper_value=0.0, measured_value=5.0)
        assert comp.ratio is None

    def test_row_formats(self):
        comp = SeriesComparison(
            "knee", paper_value=2200.0, measured_value=2304.0,
            unit="bytes", note="close",
        )
        row = comp.row()
        assert row[0] == "knee"
        assert "2200" in row[1]
        assert row[5] == "close"

    def test_row_without_paper(self):
        row = SeriesComparison("x", None, 1.0).row()
        assert row[1] == "-"
        assert row[4] == "-"


class TestExperimentResult:
    def _result(self):
        result = ExperimentResult(experiment_id="demo", title="Demo")
        result.curves.append(
            MissRateCurve(
                np.array([64, 128]), np.array([1.0, 0.5]), label="series"
            )
        )
        result.comparisons.append(SeriesComparison("q", 1.0, 1.1, "u"))
        result.tables["extra"] = "a | b"
        result.notes.append("a note")
        return result

    def test_render_includes_everything(self):
        text = self._result().render()
        assert "demo" in text
        assert "series" in text
        assert "paper vs measured" in text
        assert "extra" in text
        assert "note: a note" in text

    def test_comparison_lookup(self):
        result = self._result()
        assert result.comparison("q").measured_value == 1.1
        with pytest.raises(KeyError):
            result.comparison("missing")

    def test_comparison_values_are_floats(self):
        comp = SeriesComparison("x", paper_value=256, measured_value=np.int64(3))
        assert type(comp.paper_value) is float
        assert type(comp.measured_value) is float
        assert json.dumps(comp.to_dict()) == json.dumps(
            SeriesComparison.from_dict(comp.to_dict()).to_dict()
        )


def _quick_ids():
    from repro.experiments.__main__ import EXPERIMENTS

    return list(EXPERIMENTS)


class TestQuickRoundTrip:
    """An in-process result serializes byte-for-byte like one that went
    through a worker's JSON channel, so the two campaign backends write
    identical checkpoints and summaries."""

    @pytest.mark.parametrize("experiment_id", _quick_ids())
    def test_to_dict_is_a_fixed_point(self, experiment_id):
        from repro.experiments.__main__ import EXPERIMENTS, QUICK_OVERRIDES

        module, kwargs = EXPERIMENTS[experiment_id]
        payload = module.run(
            **{**kwargs, **QUICK_OVERRIDES.get(experiment_id, {})}
        ).to_dict()
        again = ExperimentResult.from_dict(json.loads(json.dumps(payload)))
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            again.to_dict(), sort_keys=True
        )


class TestMainEntry:
    def test_unknown_experiment_rejected(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["not-an-experiment"]) == 2
        assert "unknown experiments" in capsys.readouterr().out

    def test_runs_selected_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "table1 completed" in out

    def test_quick_flag_accepted(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--quick", "table2"]) == 0
        assert "table2 completed" in capsys.readouterr().out

    def test_list_enumerates_ids(self, capsys):
        from repro.experiments.__main__ import EXPERIMENTS, main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(EXPERIMENTS)

    def test_unknown_flag_rejected(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--no-such-flag"]) == 2

    def test_budget_flag_accepted(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--quick", "--budget-seconds", "300", "table1"]) == 0
        assert "table1 completed" in capsys.readouterr().out

    def test_nonpositive_budget_rejected(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--budget-seconds", "0", "table1"]) == 2
        assert "must be positive" in capsys.readouterr().out
        assert main(["--max-attempts", "0", "table1"]) == 2

    def test_failure_yields_nonzero_exit(self, capsys, monkeypatch):
        import repro.experiments.__main__ as entry

        class Doomed:
            def run(self, **kwargs):
                raise RuntimeError("always fails")

        monkeypatch.setitem(entry.EXPERIMENTS, "doomed", (Doomed(), {}))
        monkeypatch.setitem(entry.QUICK_OVERRIDES, "doomed", {})
        # A monkeypatched instance cannot ship to a worker subprocess;
        # exercise the failure path on the in-process backend.
        assert entry.main(
            ["--max-attempts", "1", "--jobs", "0", "doomed", "table1"]
        ) == 1
        out = capsys.readouterr().out
        # The healthy experiment still completed despite the failure.
        assert "doomed FAILED" in out
        assert "table1 completed" in out
        assert "campaign summary" in out

    def test_run_dir_and_resume(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        run_dir = str(tmp_path / "run")
        assert main(["--quick", "--run-dir", run_dir, "table1"]) == 0
        capsys.readouterr()
        assert main(["--quick", "--resume", run_dir, "table1"]) == 0
        assert "already completed" in capsys.readouterr().out

    def test_experiment_registry_complete(self):
        """Every experiment module in the package is registered."""
        import pkgutil

        import repro.experiments as package
        from repro.experiments.__main__ import EXPERIMENTS

        modules = {
            name
            for _, name, _ in pkgutil.iter_modules(package.__path__)
            if name not in ("runner", "__main__")
        }
        registered = {
            module.__name__.rsplit(".", 1)[-1]
            for module, _ in EXPERIMENTS.values()
        }
        assert modules == registered
