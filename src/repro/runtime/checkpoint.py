"""Checkpoint/resume persistence for experiment campaigns.

Each completed experiment is written to ``<run_dir>/results/<id>.json``
as soon as it finishes, so a crashed or interrupted campaign can be
resumed with ``python -m repro.experiments --resume <run_dir>``: the
engine consults :meth:`CheckpointStore.completed_ids` and re-runs only
the unfinished experiments.

Integrity matters as much as existence — a half-written checkpoint
must never masquerade as a finished experiment.  Two mechanisms
guarantee that:

- **Durable atomic write-rename**: every envelope goes through the
  shared :func:`repro.runtime.records.atomic_write_text` — temp file
  in the destination directory, file fsync, ``os.replace``, directory
  fsync — so an interruption leaves either the old file or the new
  one (never a truncated one), and the rename itself survives
  power-loss/kill semantics rather than only process death.
- **Content checksum**: the envelope stores a SHA-256 of the payload;
  :meth:`CheckpointStore.load` recomputes and compares it, raising
  :class:`~repro.runtime.errors.CheckpointCorruptError` on mismatch
  (or on any undecodable file).

Failed attempts are also recorded, under ``<run_dir>/failures/``, for
forensics only — they never count as completed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.runtime.errors import CheckpointCorruptError
from repro.runtime.records import atomic_write_text as _shared_atomic_write_text

try:  # POSIX-only; the lock degrades to a no-op elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Bumped when the checkpoint envelope layout changes.
CHECKPOINT_FORMAT = 1

_RESULTS_DIR = "results"
_FAILURES_DIR = "failures"
_MANIFEST = "manifest.json"
_SUMMARY = "summary.json"
_LOCKFILE = ".store.lock"
_EVENTS = "events.jsonl"


@contextlib.contextmanager
def file_lock(path: Union[str, Path]) -> Iterator[None]:
    """Advisory exclusive lock on ``path`` (created if missing).

    Serializes checkpoint writes across *processes* as well as threads:
    the parallel supervisor and any concurrent campaign sharing a run
    directory take this lock around every envelope write, so two
    flushes can never interleave inside one file.  No-op where
    ``fcntl`` is unavailable (atomic rename still protects readers).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    with open(path, "a+b") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Durably replace ``path`` with ``text``.

    Delegates to the shared crash-consistent helper in
    :mod:`repro.runtime.records` (file fsync + atomic rename +
    directory-entry fsync), tagged with the ``checkpoint`` I/O
    site.  Kept under its historical name — callers throughout the
    runtime and tests import it from here.
    """
    _shared_atomic_write_text(path, text, site="checkpoint")


def _payload_digest(payload: Dict[str, object]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CheckpointStore:
    """Atomic, checksummed persistence of campaign outcomes.

    Args:
        run_dir: Root directory of one campaign run.  Created on
            first write.
    """

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)

    # -- paths -------------------------------------------------------

    @property
    def results_dir(self) -> Path:
        return self.run_dir / _RESULTS_DIR

    @property
    def failures_dir(self) -> Path:
        return self.run_dir / _FAILURES_DIR

    def result_path(self, experiment_id: str) -> Path:
        return self.results_dir / f"{experiment_id}.json"

    def failure_path(self, experiment_id: str) -> Path:
        return self.failures_dir / f"{experiment_id}.json"

    @property
    def lock_path(self) -> Path:
        return self.run_dir / _LOCKFILE

    @property
    def events_path(self) -> Path:
        """Where the campaign's JSONL event log lives."""
        return self.run_dir / _EVENTS

    @property
    def summary_path(self) -> Path:
        return self.run_dir / _SUMMARY

    # -- envelope ----------------------------------------------------

    def _write_envelope(self, path: Path, payload: Dict[str, object]) -> None:
        envelope = {
            "format": CHECKPOINT_FORMAT,
            "sha256": _payload_digest(payload),
            "payload": payload,
        }
        # Single-writer discipline: the cross-process lock serializes
        # every envelope flush touching this run directory.
        with tracing.span("checkpoint.write", file=path.name):
            with file_lock(self.lock_path):
                with obs_metrics.timed("runtime.checkpoint.write_seconds"):
                    atomic_write_text(
                        path, json.dumps(envelope, indent=1, sort_keys=True)
                    )
        obs_metrics.inc("runtime.checkpoint.writes")

    def _read_envelope(self, path: Path) -> Dict[str, object]:
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CheckpointCorruptError(f"cannot read checkpoint {path}: {exc}")
        try:
            envelope = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CheckpointCorruptError(
                f"checkpoint {path} is not valid JSON: {exc}"
            )
        if not isinstance(envelope, dict) or "payload" not in envelope:
            raise CheckpointCorruptError(
                f"checkpoint {path} has no payload envelope"
            )
        fmt = envelope.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise CheckpointCorruptError(
                f"checkpoint {path} has format {fmt!r} "
                f"(expected {CHECKPOINT_FORMAT})"
            )
        payload = envelope["payload"]
        digest = _payload_digest(payload)
        if digest != envelope.get("sha256"):
            raise CheckpointCorruptError(
                f"checkpoint {path} failed its integrity check "
                f"(stored sha256 {envelope.get('sha256')!r}, "
                f"recomputed {digest!r})"
            )
        return payload

    # -- outcomes ----------------------------------------------------

    def save_outcome(self, outcome) -> Path:
        """Persist a finished (ok/degraded) outcome; returns its path."""
        path = self.result_path(outcome.experiment_id)
        self._write_envelope(path, outcome.to_dict())
        return path

    def save_failure(self, outcome) -> Path:
        """Persist a failed outcome for forensics (never a checkpoint)."""
        path = self.failure_path(outcome.experiment_id)
        self._write_envelope(path, outcome.to_dict())
        return path

    def load_outcome(self, experiment_id: str):
        """Load one completed outcome; raises on corruption."""
        from repro.runtime.engine import ExperimentOutcome

        payload = self._read_envelope(self.result_path(experiment_id))
        return ExperimentOutcome.from_dict(payload)

    def completed_ids(self) -> List[str]:
        """Experiment ids with a (valid) result checkpoint on disk.

        Corrupt checkpoints are *not* reported as completed, so a
        resumed campaign re-runs the experiment instead of trusting a
        damaged file.
        """
        if not self.results_dir.is_dir():
            return []
        done = []
        for path in sorted(self.results_dir.glob("*.json")):
            try:
                self._read_envelope(path)
            except CheckpointCorruptError:
                continue
            done.append(path.stem)
        return done

    def has_result(self, experiment_id: str) -> bool:
        path = self.result_path(experiment_id)
        if not path.is_file():
            return False
        try:
            self._read_envelope(path)
        except CheckpointCorruptError:
            return False
        return True

    # -- manifest / summary ------------------------------------------

    def write_manifest(self, manifest: Dict[str, object]) -> None:
        self._write_envelope(self.run_dir / _MANIFEST, manifest)

    def read_manifest(self) -> Optional[Dict[str, object]]:
        path = self.run_dir / _MANIFEST
        if not path.is_file():
            return None
        return self._read_envelope(path)

    def write_summary(self, summary: Dict[str, object]) -> None:
        """Persist the campaign-level summary (also on interruption)."""
        self._write_envelope(self.summary_path, summary)

    def read_summary(self) -> Optional[Dict[str, object]]:
        if not self.summary_path.is_file():
            return None
        return self._read_envelope(self.summary_path)

    # -- integrity ---------------------------------------------------

    def envelope_paths(self) -> List[Path]:
        """Every envelope file in the store: manifest, summary, results,
        failures."""
        candidates: List[Path] = []
        for name in (_MANIFEST, _SUMMARY):
            path = self.run_dir / name
            if path.is_file():
                candidates.append(path)
        for directory in (self.results_dir, self.failures_dir):
            if directory.is_dir():
                candidates.extend(sorted(directory.glob("*.json")))
        return candidates

    def verify_all(self) -> Dict[str, str]:
        """Check every envelope in the store.

        Returns a mapping of run-dir-relative path -> error message for
        each file that fails its integrity check; an empty dict means
        every envelope (manifest, summary, results, failures) verifies.
        """
        problems: Dict[str, str] = {}
        for path in self.envelope_paths():
            try:
                self._read_envelope(path)
            except CheckpointCorruptError as exc:
                problems[str(path.relative_to(self.run_dir))] = str(exc)
        return problems
