"""The result-integrity layer.

``repro.validate`` is the repository's self-verification subsystem.  It
answers, mechanically, the question every reproduction must face: *why
believe these numbers?*  Three lines of defense ship with the package:

- **Invariant oracles** (:mod:`~repro.validate.oracles`): structural
  checks over every :class:`~repro.experiments.runner.ExperimentResult`
  and stack-distance profile — rates in [0, 1], curves monotone
  non-increasing under full associativity, the cold-miss floor equal to
  the distinct-block footprint.
- **Per-app self-checks** (:mod:`~repro.validate.selfchecks`): each
  traced algorithm proves it still computes the right answer (LU
  reconstructs, CG converges, FFT inverts, exact N-body conserves
  momentum, the volrend octree bounds its voxels).
- **Artifact validation** (:mod:`~repro.validate.artifacts`): every
  file a campaign writes is schema-checked and checksum-verified.

The attacks on these defenses live with the tests, in
``tests/harness/``: the differential cross-checks over a pinned trace
corpus (Mattson profiler vs explicit LRU cache, streamed vs in-memory)
and the seeded fuzzer that proves every reader fails typed on corrupt
input.  See ``docs/VALIDATION.md`` for the operator's view.
"""

from repro.validate.artifacts import (
    validate_events_file,
    validate_run_dir,
    validate_trace_file,
)
from repro.validate.oracles import (
    RESULT_ORACLES,
    assert_valid_result,
    validate_profile,
    validate_result,
)
from repro.validate.report import (
    Finding,
    ValidationReport,
    merge_reports,
)
from repro.validate.schemas import SCHEMA_VERSION, check_schema, schema_for
from repro.validate.selfchecks import (
    SELF_CHECKS,
    assert_self_check,
    run_self_check,
)

__all__ = [
    "Finding",
    "RESULT_ORACLES",
    "SCHEMA_VERSION",
    "SELF_CHECKS",
    "ValidationReport",
    "assert_self_check",
    "assert_valid_result",
    "check_schema",
    "merge_reports",
    "run_self_check",
    "schema_for",
    "validate_events_file",
    "validate_profile",
    "validate_result",
    "validate_run_dir",
    "validate_trace_file",
]
