"""Campaign observability: metrics, tracing spans, and console logging.

The paper's whole methodology is measurement, and :mod:`repro.obs`
turns the same discipline on the runtime itself.  Three cooperating
layers, all dependency-free and all cheap enough to stay on by default
for campaigns:

- :mod:`repro.obs.metrics` — a process-local registry of counters,
  gauges and fixed-bucket histograms with an overhead-gated sampling
  hook for the simulation hot loops (refs simulated, misses, refs/sec).
  Snapshotted to ``<run_dir>/metrics.json`` per attempt.
- :mod:`repro.obs.tracing` — spans (trace/span/parent ids, monotonic
  durations) as context managers and decorators, written to
  ``<run_dir>/spans.jsonl``.
- :mod:`repro.obs.console` — the leveled progress logger that replaced
  bare ``print`` in the experiment drivers, honoring ``--quiet`` and
  ``REPRO_LOG_LEVEL`` while keeping worker-mode stdout machine-clean.

The run-directory artifacts are reconstructed by ``python -m
repro.experiments status <run-dir>`` (live view) and ``report
<run-dir>`` (static markdown/HTML), both tolerant of the torn tails a
killed supervisor leaves behind.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.metrics import (  # noqa: F401
    MetricsRegistry,
    get_registry,
    hot_loop_sampler,
    obs_enabled,
    set_obs_enabled,
)
from repro.obs.tracing import Span, get_tracer, span, traced  # noqa: F401
