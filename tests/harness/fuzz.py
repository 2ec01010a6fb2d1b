"""Deterministic fuzzing of the artifact readers.

Every on-disk reader in this repository promises to fail *typed* — a
damaged trace archive raises
:class:`~repro.mem.tracefile.TraceFileCorruptError`, a damaged
checkpoint raises
:class:`~repro.runtime.errors.CheckpointCorruptError`, and the strict
event-log validator reports findings instead of raising at all.  This
module tests that promise adversarially: it builds pristine artifacts
once, then applies seeded random mutations (truncation, bit flips,
byte substitution, zeroed spans, appended junk, emptying) and feeds
the mangled bytes back through the real readers.

Each case is classified:

- ``rejected`` — the reader raised its typed error (or, for the event
  log, reported an error finding): the contract held.
- ``accepted-identical`` — the reader accepted the bytes and produced
  data equal to the pristine artifact (the mutation hit slack bytes:
  zip padding, JSON whitespace, a truncation past the payload).  Also
  fine.
- ``accepted-prefix`` — a log reader accepted the bytes and produced a
  strict prefix of the pristine records: the mutation truncated the log
  or tore its last record, which the records module's damage rule
  (:mod:`repro.runtime.records`) tolerates as a crash signature.  Fine.
- ``accepted-divergent`` — the reader accepted the bytes but produced
  any other data.  Every artifact is checksummed — traces, checkpoints
  and the CRC-framed event log alike — so this is a silent-corruption
  bug and fails the fuzz run.
- ``unexpected-error`` — the reader leaked an exception outside its
  typed contract (``KeyError``, ``TypeError``, a raw ``zlib.error``,
  ...).  Always a bug; always fails the run.

The whole campaign is a pure function of ``seed``, so a failure
reproduces with the case index alone::

    python -m tests.harness.cli fuzz --cases 500 --seed 0
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.mem.trace import Trace, TraceBuilder
from repro.mem.tracefile import (
    TraceFileCorruptError,
    load_metadata,
    load_trace,
    save_trace,
    trace_header,
)
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.errors import CheckpointCorruptError, ValidationError
from repro.validate.report import ValidationReport

#: Exceptions a reader is *allowed* to raise on corrupt input.
#: ``TraceFileCorruptError`` subclasses ``ValueError``; the bare
#: ``ValueError`` admits the documented version-mismatch rejection.
TYPED_REJECTIONS = (
    TraceFileCorruptError,
    CheckpointCorruptError,
    ValidationError,
    ValueError,
)

#: Case classifications.
REJECTED = "rejected"
ACCEPTED_IDENTICAL = "accepted-identical"
ACCEPTED_PREFIX = "accepted-prefix"
ACCEPTED_DIVERGENT = "accepted-divergent"
UNEXPECTED_ERROR = "unexpected-error"


# -- mutations -------------------------------------------------------------


def _mutate_truncate(data: bytes, rng: np.random.Generator) -> bytes:
    if not data:
        return data
    return data[: int(rng.integers(0, len(data)))]


def _mutate_bitflip(data: bytes, rng: np.random.Generator) -> bytes:
    if not data:
        return data
    buf = bytearray(data)
    pos = int(rng.integers(0, len(buf)))
    buf[pos] ^= 1 << int(rng.integers(0, 8))
    return bytes(buf)


def _mutate_byte(data: bytes, rng: np.random.Generator) -> bytes:
    if not data:
        return data
    buf = bytearray(data)
    buf[int(rng.integers(0, len(buf)))] = int(rng.integers(0, 256))
    return bytes(buf)


def _mutate_zero_span(data: bytes, rng: np.random.Generator) -> bytes:
    if not data:
        return data
    buf = bytearray(data)
    start = int(rng.integers(0, len(buf)))
    span = int(rng.integers(1, 33))
    buf[start : start + span] = b"\x00" * len(buf[start : start + span])
    return bytes(buf)


def _mutate_append(data: bytes, rng: np.random.Generator) -> bytes:
    junk = rng.integers(0, 256, size=int(rng.integers(1, 64)), dtype=np.uint8)
    return data + junk.tobytes()


def _mutate_empty(data: bytes, rng: np.random.Generator) -> bytes:
    return b""


MUTATIONS: Dict[str, Callable[[bytes, np.random.Generator], bytes]] = {
    "truncate": _mutate_truncate,
    "bitflip": _mutate_bitflip,
    "byte-substitute": _mutate_byte,
    "zero-span": _mutate_zero_span,
    "append-junk": _mutate_append,
    "empty": _mutate_empty,
}


# -- case records ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FuzzCase:
    """One executed fuzz case."""

    index: int
    target: str
    mutation: str
    classification: str
    detail: str = ""


@dataclasses.dataclass
class FuzzReport:
    """The outcome of one fuzz campaign."""

    seed: int
    cases: List[FuzzCase] = dataclasses.field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        return dict(Counter(case.classification for case in self.cases))

    def problems(self) -> List[FuzzCase]:
        """Cases that violate a reader's contract."""
        return [
            c
            for c in self.cases
            if c.classification in (UNEXPECTED_ERROR, ACCEPTED_DIVERGENT)
        ]

    @property
    def ok(self) -> bool:
        return not self.problems()

    def to_validation_report(self) -> ValidationReport:
        report = ValidationReport(subject=f"fuzz seed={self.seed}")
        report.tick(len(self.cases))
        for case in self.problems():
            code = (
                "fuzz-unexpected-error"
                if case.classification == UNEXPECTED_ERROR
                else "fuzz-silent-corruption"
            )
            report.add(
                code,
                f"case {case.index} ({case.target}, {case.mutation}): "
                f"{case.detail}",
            )
        return report

    def render(self) -> str:
        lines = [f"== fuzz: {len(self.cases)} cases, seed {self.seed} =="]
        for name, count in sorted(self.counts.items()):
            lines.append(f"  {name}: {count}")
        problems = self.problems()
        lines.append(
            f"  verdict: {'PASS' if not problems else 'FAIL'} "
            f"({len(problems)} contract violation(s))"
        )
        for case in problems[:10]:
            lines.append(
                f"    case {case.index} {case.target}/{case.mutation}: "
                f"{case.detail}"
            )
        return "\n".join(lines)


# -- pristine artifacts ----------------------------------------------------


def _pristine_trace() -> Trace:
    tb = TraceBuilder()
    for sweep in range(3):
        for i in range(128):
            tb.read(8 * i)
            if i % 4 == 0:
                tb.write(8 * (i % 32))
    return tb.build()


def _build_targets(work_dir: Path) -> Dict[str, Tuple[Path, Callable[[Path], object]]]:
    """Create pristine artifacts; returns target -> (path, loader).

    Loaders return a canonical representation used for divergence
    detection (a list of records for the log, so a prefix shows); they
    raise on rejection.
    """
    from repro.experiments.runner import ExperimentResult
    from repro.runtime.engine import ExperimentOutcome
    from repro.runtime.events import EventLog
    from repro.core.curves import MissRateCurve

    work_dir.mkdir(parents=True, exist_ok=True)

    trace = _pristine_trace()
    trace_path = work_dir / "pristine.npz"
    save_trace(
        trace_path,
        trace,
        metadata={**trace_header(trace), "processor": 0, "seed": 0},
    )

    store = CheckpointStore(work_dir / "store")
    result = ExperimentResult(
        experiment_id="fuzz",
        title="Fuzz target",
        curves=[
            MissRateCurve(
                capacities=np.array([64, 128, 256]),
                miss_rates=np.array([0.5, 0.25, 0.125]),
                label="fuzz",
            )
        ],
    )
    outcome = ExperimentOutcome(
        experiment_id="fuzz", status="ok", result=result, attempts=1
    )
    checkpoint_path = store.save_outcome(outcome)

    # Deterministic clocks: the campaign must be a pure function of the
    # seed, so the pristine bytes cannot embed real timestamps.
    ticks = iter(range(100))
    events_path = work_dir / "events.jsonl"
    with EventLog(
        events_path,
        clock=lambda: float(next(ticks)),
        wall_clock=lambda: 1700000000.0,
    ) as log:
        for i in range(6):
            log.emit("fuzz-event", experiment_id="fuzz", attempt=i + 1)

    def load_trace_canonical(path: Path) -> object:
        loaded = load_trace(path)
        meta = load_metadata(path)
        return (
            loaded.addrs.tobytes(),
            loaded.kinds.tobytes(),
            json.dumps(meta, sort_keys=True),
        )

    def load_checkpoint_canonical(path: Path) -> object:
        payload = store._read_envelope(path)
        return json.dumps(payload, sort_keys=True)

    def load_events_canonical(path: Path) -> object:
        from repro.validate.artifacts import validate_events_file

        report = validate_events_file(path)
        if not report.ok:
            raise ValidationError(
                "; ".join(f.render() for f in report.errors[:3])
            )
        from repro.runtime.events import read_events

        return [json.dumps(event, sort_keys=True) for event in read_events(path)]

    return {
        "trace": (trace_path, load_trace_canonical),
        "checkpoint": (checkpoint_path, load_checkpoint_canonical),
        "events": (events_path, load_events_canonical),
    }


# -- the campaign ----------------------------------------------------------


def run_fuzz(
    cases: int = 500,
    seed: int = 0,
    work_dir: Optional[Union[str, Path]] = None,
) -> FuzzReport:
    """Run a deterministic fuzz campaign over the artifact readers.

    Args:
        cases: Number of mutated artifacts to feed through readers.
        seed: RNG seed; the campaign is a pure function of it.
        work_dir: Scratch directory (a temporary one is created and
            removed when omitted).

    Returns:
        A :class:`FuzzReport`; ``report.ok`` is False iff any reader
        violated its typed-error contract.
    """
    import tempfile

    owns_dir = work_dir is None
    if owns_dir:
        work_dir = Path(tempfile.mkdtemp(prefix="repro-fuzz-"))
    work_dir = Path(work_dir)
    report = FuzzReport(seed=seed)
    try:
        targets = _build_targets(work_dir)
        pristine: Dict[str, Tuple[bytes, object]] = {}
        for name, (path, loader) in targets.items():
            pristine[name] = (path.read_bytes(), loader(path))

        rng = np.random.default_rng(seed)
        target_names = sorted(targets)
        mutation_names = sorted(MUTATIONS)
        scratch = work_dir / "case-under-test"
        for index in range(cases):
            target = target_names[int(rng.integers(0, len(target_names)))]
            mutation = mutation_names[int(rng.integers(0, len(mutation_names)))]
            original, baseline = pristine[target]
            mutated = MUTATIONS[mutation](original, rng)
            scratch.write_bytes(mutated)
            _, loader = targets[target]
            try:
                loaded = loader(scratch)
            except TYPED_REJECTIONS as exc:
                classification, detail = REJECTED, f"{type(exc).__name__}"
            except FileNotFoundError:
                classification, detail = REJECTED, "FileNotFoundError"
            except BaseException as exc:  # noqa: BLE001 — the contract under test
                classification = UNEXPECTED_ERROR
                detail = f"leaked {type(exc).__name__}: {exc}"
            else:
                if mutated == original or loaded == baseline:
                    classification, detail = ACCEPTED_IDENTICAL, ""
                elif isinstance(loaded, list) and loaded == baseline[: len(loaded)]:
                    classification, detail = ACCEPTED_PREFIX, ""
                else:
                    classification = ACCEPTED_DIVERGENT
                    detail = "reader accepted mutated bytes as different data"
            report.cases.append(
                FuzzCase(
                    index=index,
                    target=target,
                    mutation=mutation,
                    classification=classification,
                    detail=detail,
                )
            )
    finally:
        if owns_dir:
            shutil.rmtree(work_dir, ignore_errors=True)
    return report
