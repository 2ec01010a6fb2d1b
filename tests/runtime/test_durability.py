"""Property-style crash/resume equivalence for the durability layer.

Sweeps seeded crash points — a persistent injected I/O failure at the
Nth write to the journal, the checkpoint store, or the event log —
through a real (in-process) campaign, then resumes with a fresh engine
under a bumped fencing token and asserts the end state is
indistinguishable from a campaign that never crashed:

- the summary is byte-identical to an uninterrupted reference run's,
- the journal records at most one ``attempt-end`` per ``attempt_uid``
  and at most one *committed* end per experiment,
- experiments the recovery pass classified ``committed`` are never
  re-executed (exactly-once commit, no double-execution),
- :func:`repro.validate.artifacts.validate_run_dir` finds no errors.

The subprocess/SIGKILL version of the same property lives in the chaos
gate (``tests/harness/chaos.py``); this sweep covers the engine
protocol itself, deterministically and fast.
"""

from __future__ import annotations

import itertools

import pytest

from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.engine import CampaignEngine, EngineConfig
from repro.runtime.events import EventLog, read_events
from repro.runtime.journal import (
    COMMITTED_STATUSES,
    JOURNAL_FILENAME,
    Journal,
    read_journal,
    recover,
)
from repro.validate.artifacts import validate_run_dir

from tests.harness.iofault import IOFault, IOFaultInjector, install
from tests.runtime.conftest import FakeClock, FakeExperiment, SleepRecorder

EXPERIMENT_IDS = ("e0", "e1", "e2")

#: Crash points: every site the engine writes through, at each of the
#: first few writes (nth=1 hits the very first byte of campaign state).
CRASH_POINTS = list(
    itertools.product(("journal", "checkpoint", "events"), (1, 2, 3, 4))
)


def run_campaign(run_dir, token, recovery=None):
    """One supervisor generation over the fake three-experiment campaign.

    Returns ``(report_or_None, crash_exception_or_None, experiments)``.
    """
    experiments = [FakeExperiment(eid) for eid in EXPERIMENT_IDS]
    registry = {e.experiment_id: (e, {"n": 5}) for e in experiments}
    store = CheckpointStore(run_dir)
    event_log = EventLog(store.events_path)
    journal = Journal(run_dir / JOURNAL_FILENAME, token=token)
    engine = CampaignEngine(
        registry,
        config=EngineConfig(sleep=SleepRecorder(), clock=FakeClock(), jobs=0),
        store=store,
        event_log=event_log,
        journal=journal,
        recovery=recovery,
    )
    report = crash = None
    try:
        report = engine.run()
    except Exception as exc:  # noqa: BLE001 — the injected crash
        crash = exc
    finally:
        event_log.close()
        journal.close()
    return report, crash, experiments


def reference_summary(tmp_path):
    ref_dir = tmp_path / "reference"
    report, crash, _ = run_campaign(ref_dir, token=1)
    assert crash is None and all(o.status == "ok" for o in report.outcomes)
    return CheckpointStore(ref_dir).summary_path.read_bytes()


def assert_aftermath_clean(run_dir, reference_bytes, resumed_experiments, recovery):
    # Summary equivalence with the never-crashed reference.
    assert CheckpointStore(run_dir).summary_path.read_bytes() == reference_bytes

    # Journal invariants: exactly-once per uid, one commit per experiment.
    replay = read_journal(run_dir / JOURNAL_FILENAME)
    assert not replay.corrupt
    ends = [r for r in replay.records if r["type"] == "attempt-end"]
    uids = [r["attempt_uid"] for r in ends if "attempt_uid" in r]
    assert len(uids) == len(set(uids)), f"duplicated attempt_uid in {uids}"
    committed_ends = [
        r for r in ends if r.get("status") in COMMITTED_STATUSES
    ]
    per_experiment = {}
    for record in committed_ends:
        per_experiment.setdefault(record["experiment_id"], []).append(record)
    for experiment_id, records in per_experiment.items():
        assert len(records) == 1, (
            f"{experiment_id} committed {len(records)} times"
        )

    # No double-execution: recovered-committed experiments never re-ran.
    if recovery is not None:
        for experiment in resumed_experiments:
            if experiment.experiment_id in recovery.committed:
                assert experiment.calls == [], (
                    f"{experiment.experiment_id} was committed before the "
                    "crash but executed again on resume"
                )

    # The event log kept its total order across generations.
    events = read_events(CheckpointStore(run_dir).events_path)
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(set(seqs)), "event seq not strictly increasing"
    end_uids = [
        e["attempt_uid"]
        for e in events
        if e.get("event") == "attempt-end" and "attempt_uid" in e
    ]
    assert len(end_uids) == len(set(end_uids))

    # The full artifact audit agrees.
    report = validate_run_dir(run_dir)
    assert report.ok, report.render()


@pytest.mark.parametrize("site,nth", CRASH_POINTS)
def test_resume_equivalence_after_io_crash(tmp_path, site, nth):
    reference_bytes = reference_summary(tmp_path)
    run_dir = tmp_path / "crashed"

    # Generation 1: a persistently failing disk at the seeded point.
    injector = IOFaultInjector(
        [IOFault(site, "write", "eio", nth=nth, repeat=True)]
    )
    with install(injector):
        _, crash, _ = run_campaign(run_dir, token=1)
    assert crash is not None, (
        f"{site}:write:eio:{nth} never fired — widen CRASH_POINTS"
    )

    # Generation 2: recover, fence, resume, complete.
    recovery = recover(run_dir)
    token = (recovery.last_token if recovery else 0) + 1
    report, crash, experiments = run_campaign(
        run_dir, token=token, recovery=recovery
    )
    assert crash is None
    assert sorted(o.experiment_id for o in report.outcomes) == list(
        EXPERIMENT_IDS
    )
    assert all(o.status == "ok" for o in report.outcomes)
    assert_aftermath_clean(run_dir, reference_bytes, experiments, recovery)


@pytest.mark.parametrize("nth", [1, 3, 6])
def test_resume_after_torn_journal_write(tmp_path, nth):
    """A short write tears the journal mid-record; recovery truncates
    the torn tail and the campaign still converges."""
    reference_bytes = reference_summary(tmp_path)
    run_dir = tmp_path / "torn"
    injector = IOFaultInjector(
        [IOFault("journal", "write", "short-write", nth=nth, repeat=True)]
    )
    with install(injector):
        _, crash, _ = run_campaign(run_dir, token=1)
    assert crash is not None
    assert read_journal(run_dir / JOURNAL_FILENAME).torn_tail

    recovery = recover(run_dir)
    assert recovery.torn_tail and recovery.truncated_bytes > 0
    report, crash, experiments = run_campaign(
        run_dir, token=recovery.last_token + 1, recovery=recovery
    )
    assert crash is None and all(o.status == "ok" for o in report.outcomes)
    assert_aftermath_clean(run_dir, reference_bytes, experiments, recovery)


def test_double_crash_then_resume(tmp_path):
    """Two successive crashed generations (different sites) still
    converge, with tokens strictly increasing across all three."""
    reference_bytes = reference_summary(tmp_path)
    run_dir = tmp_path / "double"

    for generation, (site, nth) in enumerate(
        [("checkpoint", 2), ("journal", 4)], start=1
    ):
        recovery = recover(run_dir)
        token = (recovery.last_token if recovery else 0) + 1
        injector = IOFaultInjector(
            [IOFault(site, "write", "eio", nth=nth, repeat=True)]
        )
        with install(injector):
            _, crash, _ = run_campaign(run_dir, token=token, recovery=recovery)
        assert crash is not None, f"generation {generation} did not crash"

    recovery = recover(run_dir)
    report, crash, experiments = run_campaign(
        run_dir, token=recovery.last_token + 1, recovery=recovery
    )
    assert crash is None and all(o.status == "ok" for o in report.outcomes)
    tokens = [r["token"] for r in read_journal(run_dir / JOURNAL_FILENAME).records]
    assert tokens == sorted(tokens)
    assert_aftermath_clean(run_dir, reference_bytes, experiments, recovery)


def test_transient_enospc_is_absorbed_without_crash(tmp_path):
    """A one-shot disk-full at any checkpoint write is retried away:
    no crash, no restart, audit-clean directory."""
    reference_bytes = reference_summary(tmp_path)
    run_dir = tmp_path / "hiccup"
    injector = IOFaultInjector(
        [IOFault("checkpoint", "write", "enospc", nth=1)]
    )
    with install(injector):
        report, crash, experiments = run_campaign(run_dir, token=1)
    assert crash is None
    assert all(o.status == "ok" for o in report.outcomes)
    assert_aftermath_clean(run_dir, reference_bytes, experiments, None)
