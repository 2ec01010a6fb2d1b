"""Window-by-window ``stackdist`` timeline rows: the test oracle for the
one-pass row derivation in :meth:`repro.mem.stack_distance.StackDistanceRun.feed`.

Feeds a profile's windows one at a time, with no timeline recorder
active, and reads each window's row off the change in the run's
depth histogram and counters, exactly as the profiler did before it
derived every row from a single pass over the whole trace.  The rows
carry every content field.  Each ``misses`` vector indexes
:data:`repro.obs.timeline.STACKDIST_LADDER`.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.mem.stack_distance import StackDistanceRun
from repro.mem.trace import Trace
from repro.obs import timeline


def window_row(
    run: StackDistanceRun,
    window: Trace,
    pre_hist: np.ndarray,
    pre_cold: int,
    pre_total: int,
) -> Dict[str, object]:
    """The row for ``window``, just fed to ``run`` from the given state."""
    d_cold = run._cold - pre_cold
    d_total = run._total - pre_total
    size = max(len(run._hist), len(pre_hist))
    d_hist = np.zeros(size, dtype=np.int64)
    d_hist[: len(run._hist)] += run._hist
    d_hist[: len(pre_hist)] -= pre_hist
    cum = np.cumsum(d_hist)
    grid = np.asarray(timeline.STACKDIST_LADDER, dtype=np.int64)
    cap_blocks = np.minimum(grid // run.block_size, size - 1)
    hits_within = np.where(cap_blocks >= 1, cum[cap_blocks], 0)
    misses = d_total - hits_within
    return {
        "refs": len(window),
        "counted": int(d_total),
        "cold": int(d_cold),
        "block_size": run.block_size,
        "ws_blocks": int(window.footprint(run.block_size)),
        "misses": [int(m) for m in misses],
    }


def windowed_rows(
    trace: Trace,
    step: int,
    block_size: int = 8,
    count_reads_only: bool = False,
    warmup: int = 0,
) -> List[Dict[str, object]]:
    """One row per ``step``-reference window of ``trace``, each window
    fed on its own into one incremental run."""
    assert timeline.active_recorder() is None, "the oracle feeds unrecorded"
    run = StackDistanceRun(
        block_size=block_size, count_reads_only=count_reads_only, warmup=warmup
    )
    rows = []
    for start in range(0, len(trace), step):
        window = Trace(
            trace.addrs[start : start + step], trace.kinds[start : start + step]
        )
        pre = (run._hist.copy(), run._cold, run._total)
        run.feed(window)
        rows.append(window_row(run, window, *pre))
    return rows
