"""CLI integration: subcommands, --validate, --verify-store, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.experiments.__main__ import EXPERIMENTS, SUBCOMMANDS, main
from repro.runtime.checkpoint import CheckpointStore


def test_subcommands_cannot_shadow_experiment_ids():
    """The pre-argparse dispatch is safe only while this holds."""
    assert not set(SUBCOMMANDS) & set(EXPERIMENTS)


def test_cli_import_does_not_load_scipy():
    """Every CLI start, campaign parent and worker imports the
    experiment registry; scipy (~0.5 s) loads only when a mesh is
    triangulated."""
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    probe = (
        "import sys, repro.experiments.__main__; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


class TestValidateSubcommand:
    def test_missing_run_dir_exits_1(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "absent")])
        assert code == 1
        assert "run-dir-missing" in capsys.readouterr().out

    def test_clean_quick_campaign_validates(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert (
            main(
                [
                    "--quick",
                    "--jobs",
                    "0",
                    "--validate",
                    "--run-dir",
                    str(run_dir),
                    "table1",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["validate", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_corruption_detected_with_exit_1(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["--quick", "--jobs", "0", "--run-dir", str(run_dir), "table1"])
        checkpoint = run_dir / "results" / "table1.json"
        checkpoint.write_text(checkpoint.read_text().replace('"ok"', '"OK"', 1))
        capsys.readouterr()
        assert main(["validate", str(run_dir)]) == 1
        assert "checkpoint-corrupt" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        main(["validate", "--json", str(tmp_path / "absent")])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["code"] == "run-dir-missing"


class TestFuzzSubcommand:
    def test_smoke_fuzz_exits_0(self, capsys):
        assert main(["fuzz", "--cases", "30", "--seed", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bad_cases_value_is_usage_error(self, capsys):
        assert main(["fuzz", "--cases", "0"]) == 2

    def test_json_output(self, capsys):
        assert main(["fuzz", "--cases", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True


class TestVerifyStore:
    def test_clean_store_exits_0(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["--quick", "--jobs", "0", "--run-dir", str(run_dir), "table1"])
        capsys.readouterr()
        assert main(["--verify-store", str(run_dir)]) == 0
        assert "every envelope verified" in capsys.readouterr().out

    def test_corrupt_store_exits_1(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["--quick", "--jobs", "0", "--run-dir", str(run_dir), "table1"])
        checkpoint = run_dir / "results" / "table1.json"
        checkpoint.write_text(checkpoint.read_text()[:-20])
        capsys.readouterr()
        assert main(["--verify-store", str(run_dir)]) == 1
        assert "corrupt envelope" in capsys.readouterr().out


class TestValidateFlag:
    def test_validate_flag_recorded_in_manifest(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert (
            main(
                [
                    "--quick",
                    "--jobs",
                    "0",
                    "--validate",
                    "--run-dir",
                    str(run_dir),
                    "table1",
                ]
            )
            == 0
        )
        manifest = CheckpointStore(run_dir).read_manifest()
        assert manifest["validate"] is True
        capsys.readouterr()

    def test_validated_event_emitted(self, tmp_path, capsys):
        from repro.runtime.events import read_events

        run_dir = tmp_path / "run"
        main(
            [
                "--quick",
                "--jobs",
                "0",
                "--validate",
                "--run-dir",
                str(run_dir),
                "table1",
            ]
        )
        capsys.readouterr()
        events = read_events(run_dir / "events.jsonl")
        validated = [e for e in events if e["event"] == "validated"]
        assert validated and validated[0]["experiment_id"] == "table1"
        assert validated[0]["errors"] == 0


class TestChaosSubcommand:
    def test_chaos_is_registered(self):
        assert "chaos" in SUBCOMMANDS

    def test_negative_cycles_is_usage_error(self, capsys):
        assert main(["chaos", "--cycles", "-1"]) == 2
        assert "must be >= 0" in capsys.readouterr().out

    def test_zero_total_cycles_is_usage_error(self, capsys):
        assert main(["chaos", "--cycles", "0", "--enospc-cycles", "0"]) == 2
        assert "nothing to do" in capsys.readouterr().out

    def test_unknown_experiment_is_usage_error(self, capsys):
        assert main(["chaos", "--cycles", "1", "--experiments", "nope"]) == 2
        assert "unknown experiments" in capsys.readouterr().out


class TestDurabilityCLI:
    """The journal/lease wiring of the main campaign entry point."""

    def test_campaign_journals_and_releases_lease(self, tmp_path, capsys):
        from repro.runtime.journal import JOURNAL_FILENAME, read_journal
        from repro.runtime.lease import LEASE_FILENAME

        run_dir = tmp_path / "run"
        assert (
            main(["--quick", "--jobs", "0", "--run-dir", str(run_dir), "table1"])
            == 0
        )
        replay = read_journal(run_dir / JOURNAL_FILENAME)
        types = [r["type"] for r in replay.records]
        assert types[0] == "campaign-start"
        assert "attempt-end" in types and "summary-flushed" in types
        assert all(r["token"] == 1 for r in replay.records)
        assert not (run_dir / LEASE_FILENAME).exists()

    def test_resume_journals_recovery_under_new_token(self, tmp_path, capsys):
        from repro.runtime.journal import JOURNAL_FILENAME, read_journal

        run_dir = tmp_path / "run"
        main(["--quick", "--jobs", "0", "--run-dir", str(run_dir), "table1"])
        capsys.readouterr()
        assert main(["--quick", "--jobs", "0", "--resume", str(run_dir), "table1"]) == 0
        recovered = [
            r
            for r in read_journal(run_dir / JOURNAL_FILENAME).records
            if r["type"] == "recovered"
        ]
        assert recovered and recovered[0]["token"] == 2
        assert recovered[0]["committed"] == ["table1"]

    def test_live_lease_refuses_second_supervisor(self, tmp_path, capsys):
        from repro.runtime.lease import Lease

        run_dir = tmp_path / "run"
        run_dir.mkdir(parents=True)
        with Lease.acquire(run_dir):
            code = main(
                ["--quick", "--jobs", "0", "--run-dir", str(run_dir), "table1"]
            )
        assert code == 1
        assert "lease refused" in capsys.readouterr().out

    def test_corrupt_journal_refuses_to_run(self, tmp_path, capsys):
        from repro.runtime.journal import JOURNAL_FILENAME

        run_dir = tmp_path / "run"
        main(["--quick", "--jobs", "0", "--run-dir", str(run_dir), "table1"])
        capsys.readouterr()
        path = run_dir / JOURNAL_FILENAME
        blob = bytearray(path.read_bytes())
        blob[8] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(["--quick", "--jobs", "0", "--resume", str(run_dir), "table1"]) == 1
        assert "journal unusable" in capsys.readouterr().out

    def test_nonpositive_lease_ttl_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "--quick",
                "--lease-ttl-seconds",
                "0",
                "--run-dir",
                str(tmp_path / "run"),
                "table1",
            ]
        )
        assert code == 2
        assert "must be positive" in capsys.readouterr().out

    def test_validate_audits_the_journal(self, tmp_path, capsys):
        from repro.runtime.journal import JOURNAL_FILENAME

        run_dir = tmp_path / "run"
        main(["--quick", "--jobs", "0", "--run-dir", str(run_dir), "table1"])
        path = run_dir / JOURNAL_FILENAME
        blob = bytearray(path.read_bytes())
        blob[8] ^= 0xFF
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["validate", str(run_dir)]) == 1
        assert "journal-corrupt" in capsys.readouterr().out


class TestNodesFlag:
    """--nodes validation on the campaign and chaos CLIs."""

    def test_nodes_must_be_positive(self, tmp_path, capsys):
        code = main([
            "--quick", "--jobs", "1", "--nodes", "0",
            "--run-dir", str(tmp_path / "r"), "table1",
        ])
        assert code == 2
        assert "--nodes must be >= 1" in capsys.readouterr().out

    def test_nodes_requires_subprocess_jobs(self, tmp_path, capsys):
        code = main([
            "--quick", "--jobs", "0", "--nodes", "2",
            "--run-dir", str(tmp_path / "r"), "table1",
        ])
        assert code == 2
        assert "--nodes requires --jobs >= 1" in capsys.readouterr().out

    def test_chaos_nodes_validation(self, capsys):
        assert main(["chaos", "--nodes", "0"]) == 2
        assert "--nodes must be >= 1" in capsys.readouterr().out
        assert main(["chaos", "--nodes", "2", "--jobs", "0"]) == 2
        assert "--nodes requires --jobs >= 1" in capsys.readouterr().out

    def test_serve_nodes_validation(self, tmp_path, capsys):
        from repro.service.http import ServiceConfig

        with pytest.raises(ValueError, match="nodes"):
            ServiceConfig(nodes=0)
        with pytest.raises(ValueError, match="jobs"):
            ServiceConfig(nodes=2, jobs=0)
