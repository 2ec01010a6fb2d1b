"""CLI integration: subcommands, --validate, --verify-store, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.experiments.__main__ import EXPERIMENTS, SUBCOMMANDS, main
from repro.runtime.checkpoint import CheckpointStore

from tests.harness import cli as harness_cli


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
    """The fuzz gate of ``python -m tests.harness.cli``."""

    def test_smoke_fuzz_exits_0(self, capsys):
        assert harness_cli.main(["fuzz", "--cases", "30", "--seed", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bad_cases_value_is_usage_error(self, capsys):
        assert harness_cli.main(["fuzz", "--cases", "0"]) == 2

    def test_json_output(self, capsys):
        assert harness_cli.main(["fuzz", "--cases", "10", "--json"]) == 0
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

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["--verify-store", str(tmp_path / "absent")]) == 2
        assert "not a directory" in capsys.readouterr().out

    def test_directory_without_envelopes_exits_1(self, tmp_path, capsys):
        assert main(["--verify-store", str(tmp_path)]) == 1
        assert "no checkpoint envelopes" in capsys.readouterr().out

    def test_success_line_counts_envelopes(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["--quick", "--jobs", "0", "--run-dir", str(run_dir), "table1"])
        capsys.readouterr()
        assert main(["--verify-store", str(run_dir)]) == 0
        # manifest, summary and table1's result
        assert "(3 checked)" in capsys.readouterr().out


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
    """The chaos gate of ``python -m tests.harness.cli``."""

    def test_chaos_is_registered(self):
        assert "chaos" in harness_cli.GATES

    def test_negative_cycles_is_usage_error(self, capsys):
        assert harness_cli.main(["chaos", "--cycles", "-1"]) == 2
        assert "must be >= 0" in capsys.readouterr().out

    def test_zero_total_cycles_is_usage_error(self, capsys):
        assert harness_cli.main(["chaos", "--cycles", "0", "--enospc-cycles", "0"]) == 2
        assert "nothing to do" in capsys.readouterr().out

    def test_unknown_experiment_is_usage_error(self, capsys):
        assert harness_cli.main(["chaos", "--cycles", "1", "--experiments", "nope"]) == 2
        assert "unknown experiments" in capsys.readouterr().out


def _product_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


class TestProductIgnoresTheHarness:
    """The user CLI carries no test harness: no fault flag, no chaos or
    fuzz subcommand, and no environment variable that arms a fault."""

    def test_subcommands_are_the_product_ones(self):
        assert set(SUBCOMMANDS) == {"validate", "status", "report", "trends"}

    def test_harness_entry_points_are_usage_errors(self, capsys):
        assert main(["chaos"]) == 2
        assert main(["fuzz"]) == 2
        assert main(["--inject-fault", "x=crash"]) == 2

    def test_help_has_no_fault_flag(self, capsys):
        assert main(["--help"]) == 0
        assert "--inject-fault" not in capsys.readouterr().out

    def test_iofault_variable_changes_nothing(self, tmp_path):
        run_dir = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--quick",
             "--run-dir", str(run_dir), "table1", "cost"],
            capture_output=True, text=True, timeout=300,
            env=_product_env(REPRO_IOFAULT="journal:write:kill:1"),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert main(["validate", str(run_dir)]) == 0


class TestResumeKeepsTheManifest:
    def test_resume_of_a_subset_keeps_every_requested_id(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        base = ["--quick", "--jobs", "0"]
        assert main(base + ["--run-dir", run_dir, "table1", "fig2", "cost"]) == 0
        store = CheckpointStore(run_dir)
        assert store.read_manifest()["experiments"] == ["table1", "fig2", "cost"]
        assert main(base + ["--resume", run_dir, "table1"]) == 0
        assert store.read_manifest()["experiments"] == ["table1", "fig2", "cost"]
        assert main(base + ["--resume", run_dir, "scaling", "table1"]) == 0
        assert store.read_manifest()["experiments"] == [
            "table1", "fig2", "cost", "scaling",
        ]
        capsys.readouterr()
        assert main(["validate", run_dir]) == 0, capsys.readouterr().out


class TestDurabilityCLI:
    """The journal and supervisor-lock wiring of the main campaign
    entry point."""

    def test_campaign_journals_and_releases_lease(self, tmp_path, capsys):
        from repro.runtime.journal import (
            JOURNAL_FILENAME,
            lock_run_dir,
            read_journal,
        )

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
        fd = lock_run_dir(run_dir)  # free once main returns
        assert fd is not None
        os.close(fd)

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
        from repro.runtime.journal import lock_run_dir

        run_dir = tmp_path / "run"
        fd = lock_run_dir(run_dir)
        try:
            code = main(
                ["--quick", "--jobs", "0", "--run-dir", str(run_dir), "table1"]
            )
        finally:
            os.close(fd)
        assert code == 1
        out = capsys.readouterr().out
        assert "lease refused" in out and f"pid {os.getpid()}" in out

    def test_refused_supervisor_leaves_run_dir_untouched(self, tmp_path, capsys):
        """Refusal comes before streaming setup, spans, the timeline and
        journal recovery: not one file appears, grows or shrinks."""
        from repro.runtime.journal import JOURNAL_FILENAME, lock_run_dir

        run_dir = tmp_path / "run"
        main(["--quick", "--jobs", "0", "--run-dir", str(run_dir), "table1"])
        with open(run_dir / JOURNAL_FILENAME, "ab") as handle:
            handle.write(b"WAL1 torn")  # recovery would truncate this
        (run_dir / "spans.jsonl").unlink()
        (run_dir / "timeline.jsonl").unlink(missing_ok=True)

        def snapshot():
            return {
                str(path.relative_to(run_dir)): path.stat().st_size
                for path in sorted(run_dir.rglob("*"))
            }

        fd = lock_run_dir(run_dir)
        try:
            before = snapshot()
            capsys.readouterr()
            code = main(
                ["--quick", "--jobs", "0", "--stream", "--resume",
                 str(run_dir), "table1"]
            )
            after = snapshot()
        finally:
            os.close(fd)
        assert code == 1
        assert "lease refused" in capsys.readouterr().out
        assert after == before

    def test_resume_of_a_lease_era_run_dir(self, tmp_path, capsys):
        """A run directory in the heartbeat-lease format (journal tokens
        1-2, a stale ``supervisor.lease``, no lock file) resumes under
        generation 3 and validates clean."""
        from repro.runtime.journal import (
            JOURNAL_FILENAME,
            LOCK_FILENAME,
            read_journal,
        )

        run_dir = tmp_path / "run"
        args = ["--quick", "--jobs", "0", "table1"]
        assert main([*args, "--run-dir", str(run_dir)]) == 0
        assert main([*args, "--resume", str(run_dir)]) == 0
        (run_dir / LOCK_FILENAME).unlink()
        (run_dir / "supervisor.lease").write_text(
            json.dumps(
                {"pid": 2**22 + 1, "token": 2, "acquired_wall": 0.0,
                 "heartbeat_wall": 0.0, "hostname": "gone"},
                sort_keys=True,
            )
        )
        replay = read_journal(run_dir / JOURNAL_FILENAME)
        assert [r["token"] for r in replay.records][-1] == 2
        assert main([*args, "--resume", str(run_dir)]) == 0
        recovered = [
            r
            for r in read_journal(run_dir / JOURNAL_FILENAME).records
            if r["type"] == "recovered"
        ]
        assert [r["token"] for r in recovered] == [2, 3]
        capsys.readouterr()
        assert main(["validate", str(run_dir)]) == 0, capsys.readouterr().out

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
