"""Window-by-window ``stackdist`` timeline rows: the test oracle for the
one-pass row derivation in :meth:`repro.mem.stack_distance.StackDistanceRun.feed`.

Feeds a profile's windows one at a time, with no timeline recorder
active, and reads each window's row off the change in the run's
depth histogram and counters, exactly as the profiler did before it
derived every row from a single pass over the whole trace; the
footprint is the oracle's own count of the distinct blocks fed.  The rows
carry every content field; the timing fields (``elapsed_s``,
``refs_per_second``) are left out.  Each ``misses`` vector indexes
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
    footprint: int,
) -> Dict[str, object]:
    """The row for ``window``, just fed to ``run`` from the given state;
    ``footprint`` counts the distinct blocks fed through ``window``."""
    d_cold = run._cold - pre_cold
    d_total = run._total - pre_total
    size = max(len(run._hist), len(pre_hist))
    d_hist = np.zeros(size, dtype=np.int64)
    d_hist[: len(run._hist)] += run._hist
    d_hist[: len(pre_hist)] -= pre_hist
    cum = np.cumsum(d_hist)
    hits_total = int(cum[-1])
    grid = np.asarray(timeline.STACKDIST_LADDER, dtype=np.int64)
    cap_blocks = np.minimum(grid // run.block_size, size - 1)
    hits_within = np.where(cap_blocks >= 1, cum[cap_blocks], 0)
    misses = d_total - hits_within
    row: Dict[str, object] = {
        "refs": len(window),
        "counted": int(d_total),
        "cold": int(d_cold),
        "block_size": run.block_size,
        "ws_blocks": int(window.footprint(run.block_size)),
        "footprint_blocks": footprint,
        "misses": [int(m) for m in misses],
    }
    if hits_total > 0:
        for label, q in (("depth_p50", 0.50), ("depth_p90", 0.90), ("depth_p99", 0.99)):
            row[label] = int(np.searchsorted(cum, q * hits_total))
    return row


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
    seen = set()
    for start in range(0, len(trace), step):
        window = Trace(
            trace.addrs[start : start + step], trace.kinds[start : start + step]
        )
        pre = (run._hist.copy(), run._cold, run._total)
        run.feed(window)
        seen.update(window.block_ids(block_size).tolist())
        rows.append(window_row(run, window, *pre, len(seen)))
    return rows
