"""Shared isolation for the observability tests.

Metrics, tracing, and console all keep deliberate process-global state
(one registry, one ambient tracer, one console).  Every test in this
package starts and ends with that state reset, so tests cannot leak
samples, spans, or a quiet console into each other — or into the rest
of the suite.
"""

from __future__ import annotations

import pytest

from repro.obs import console
from repro.obs import metrics as obs_metrics
from repro.obs import timeline as obs_timeline
from repro.obs import tracing as obs_tracing


@pytest.fixture(autouse=True)
def _obs_isolation():
    obs_metrics.set_obs_enabled(False)
    obs_metrics.get_registry().reset()
    obs_tracing.shutdown()
    obs_timeline.configure_timeline(None)
    console.set_quiet(False)
    yield
    obs_tracing.shutdown()
    obs_timeline.configure_timeline(None)
    obs_metrics.set_obs_enabled(False)
    obs_metrics.get_registry().reset()
    console.set_quiet(False)
