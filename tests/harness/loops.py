"""The per-reference loops: the reference semantics the kernels are held to.

Every simulator reaches the numpy kernels through one call, looked up
on the module when it runs: ``kernels.guard_run(kind, sim, trace, ...)``,
which takes the simulator's snapshot, hands it with the chunk to
``kernels.KERNELS[kind]`` and loads the successor snapshot back.
:func:`stackdist_loop` and :func:`setassoc_loop` are pure functions over
those same snapshots, one reference at a time: a Fenwick tree over
last-access times for the stack depths, and most-recent-first Python
lists per cache set.  They share no code with the numpy engine, so a
comparison between the two is a real differential.

:func:`loops_only` swaps the two loops into ``kernels.KERNELS`` and
declines every ``multiproc`` chunk, so ``MultiprocessorMemory`` runs its
own per-reference loop.  The kernels and the real guard are untouched.

:func:`arm` wraps every runner of a registry in :func:`run`, which holds
the real runner to the loops.  Runners ship to forked workers by
reference, so the loops reach the workers too; ``python -m
tests.harness.cli --loops-only ARGS`` runs the real CLI that way.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from typing import Dict, List, Mapping, Tuple
from unittest import mock

import numpy as np

from repro.experiments.runner import ExperimentResult
from repro.mem import kernels
from repro.mem.trace import READ
from repro.obs import metrics as obs_metrics
from repro.runtime.budget import active_budget
from repro.runtime.workers import resolve_runner_ref, runner_ref

#: The reserved kwarg carrying the real runner into :func:`run`.
RUNNER_KWARG = "loops_runner"

#: References each loop runs between budget polls.
CHECK_INTERVAL = 8192


def _fenwick_of_ones(count: int, capacity: int) -> List[int]:
    """Fenwick tree over ``capacity`` slots with ones in ``[0, count)``.

    A plain list, 1-based (element 0 unused): scalar indexing of a list
    is several times cheaper than of a numpy array.  Node ``i`` sums
    slots ``(i - lowbit(i), i]``: every node up to ``count`` covers only
    ones, and the nodes above it that still overlap the prefix are
    exactly the update path of slot ``count``.
    """
    nodes = np.arange(count + 1, dtype=np.int64)
    tree = (nodes & -nodes).tolist()
    tree += [0] * (capacity - count)
    i = count + (count & -count)
    while 0 < i <= capacity:
        tree[i] = count - (i - (i & -i))
        i += i & -i
    return tree


def stackdist_loop(
    state: dict, blocks: np.ndarray, kinds: np.ndarray, links: bool = False
) -> dict:
    """:func:`repro.mem.kernels.kernel_stackdist`, one reference at a time.

    The resident blocks get timestamps ``0..F-1`` in last-access order
    and the chunk's references ``F..F+n-1``.  A Fenwick tree holds a one
    at every block's latest timestamp; every live timestamp precedes
    the current one, so the blocks touched strictly after ``prev`` are
    ``live - prefix(prev)`` and the depth is that plus one.  The ambient
    budget is polled every :data:`CHECK_INTERVAL` references.
    """
    resident = state["blocks_by_last_access"]
    base = len(resident)
    n = int(blocks.shape[0])
    last_time = dict(zip(resident, range(base)))
    # A power-of-two size makes any two update paths merge below the
    # root, which the paired update walk relies on.
    size = 1 << max(base + n - 1, 1).bit_length()
    tree = _fenwick_of_ones(base, size)
    get = last_time.get
    live = base
    depths = array("q")  # 0 marks a first touch
    prevs = array("q")  # the previous reference's timestamp, -1 for none
    budget = active_budget()
    ids = blocks.tolist()
    for start in range(0, n, CHECK_INTERVAL):
        if budget is not None:
            budget.check("stack-distance loop")
        window = ids[start : start + CHECK_INTERVAL]
        for t, block in enumerate(window, base + start):
            j = t + 1  # tree node of slot t
            prev = get(block)
            if prev is None:
                live += 1
                depths.append(0)
                prevs.append(-1)
                while j <= size:
                    tree[j] += 1
                    j += j & -j
            else:
                i = prev + 1
                below = 0
                while i:
                    below += tree[i]
                    i &= i - 1
                depths.append(live - below + 1)
                prevs.append(prev)
                # Move prev's one to t; above the paths' merge the -1
                # and +1 cancel.
                i = prev + 1
                while i != j:
                    if i < j:
                        tree[i] -= 1
                        i += i & -i
                    else:
                        tree[j] += 1
                        j += j & -j
            last_time[block] = t
    depth = np.frombuffer(depths, dtype=np.int64)
    pos0 = int(state["pos"])
    counted = np.ones(n, dtype=bool)
    counted[: max(0, min(n, int(state["warmup"]) - pos0))] = False
    if state["count_reads_only"]:
        counted &= kinds == READ
    kept = depth[counted]
    counts = np.bincount(kept)
    old = state["hist"]
    hist = np.zeros(max(len(old), counts.shape[0]), dtype=np.int64)
    hist[: len(old)] = old
    hist[1 : counts.shape[0]] += counts[1:]
    nonzero = np.flatnonzero(hist)
    top = int(nonzero[-1]) if nonzero.size else 0
    stamps = np.fromiter(last_time.values(), dtype=np.int64, count=len(last_time))
    order = np.fromiter(last_time, dtype=np.int64, count=len(last_time))
    order = order[np.argsort(stamps)]
    post = {
        "block_size": state["block_size"],
        "count_reads_only": state["count_reads_only"],
        "warmup": state["warmup"],
        "pos": pos0 + n,
        "cold": int(state["cold"]) + (int(counts[0]) if counts.size else 0),
        "total": int(state["total"]) + int(kept.shape[0]),
        "blocks_by_last_access": order.tolist(),
        "hist": hist[: top + 1].tolist(),
    }
    if links:
        prev = np.frombuffer(prevs, dtype=np.int64) - base
        np.maximum(prev, -1, out=prev)
        post["links"] = (depth.astype(np.int32), prev.astype(np.int32))
    return post


def _setassoc_one(
    state: dict, blocks: List[int], kinds: List[int], budget
) -> dict:
    """One cache of :func:`setassoc_loop`: per-set lists, MRU first."""
    ways = int(state["associativity"])
    num_sets = int(state["capacity_bytes"]) // int(state["block_size"]) // ways
    orders = list(state["set_orders_mru_to_lru"])
    sets = []
    start = 0
    for count in state["set_counts"]:
        sets.append(orders[start : start + count])
        start += count
    ever_seen = set(state["ever_seen"])
    stats = dict(state["stats"])
    for start in range(0, len(blocks), CHECK_INTERVAL):
        if budget is not None:
            budget.check("set-associative loop")
        end = start + CHECK_INTERVAL
        for block, kind in zip(blocks[start:end], kinds[start:end]):
            cache_set = sets[block % num_sets]
            stats["reads" if kind == READ else "writes"] += 1
            if cache_set and cache_set[0] == block:
                continue
            if block in cache_set:
                cache_set.remove(block)
            else:
                stats["read_misses" if kind == READ else "write_misses"] += 1
                if block not in ever_seen:
                    stats["cold_misses"] += 1
                    ever_seen.add(block)
                if len(cache_set) == ways:
                    cache_set.pop()
            cache_set.insert(0, block)
    return {
        "capacity_bytes": state["capacity_bytes"],
        "block_size": state["block_size"],
        "associativity": state["associativity"],
        "set_orders_mru_to_lru": [block for cache_set in sets for block in cache_set],
        "set_counts": [len(cache_set) for cache_set in sets],
        "ever_seen": sorted(ever_seen),
        "stats": stats,
    }


def setassoc_loop(
    states: List[dict], blocks: np.ndarray, kinds: np.ndarray, budget=None
) -> List[dict]:
    """:func:`repro.mem.kernels.kernel_setassoc`, one cache and one
    reference at a time; ``budget`` is polled every
    :data:`CHECK_INTERVAL` references."""
    ids, classes = blocks.tolist(), kinds.tolist()
    return [_setassoc_one(state, ids, classes, budget) for state in states]


#: The loops that stand in for the kernels under :func:`loops_only`.
LOOPS = {"stackdist": stackdist_loop, "setassoc": setassoc_loop}


@contextmanager
def loops_only(held: bool = True):
    """Run every simulator chunk on its per-reference loop while active;
    ``held=False`` changes nothing (for tests run both ways).

    The real guard still takes and checks every ``stackdist`` and
    ``setassoc`` chunk, but runs it on the loops of :data:`LOOPS`, and
    the kernel chunk counters (``mem.kernel.<kind>.chunks``, which
    ``status`` reports) are not written, since no kernel ran.
    ``multiproc`` chunks are declined, so its own loop runs.
    """
    if not held:
        yield
        return
    guard = kernels.guard_run
    count = obs_metrics.inc

    def loops_guard(kernel, sim, trace, budget=None, **options) -> bool:
        if kernel == "multiproc":
            return False
        return guard(kernel, sim, trace, budget=budget, **options)

    def inc(name: str, amount: float = 1) -> None:
        if not name.startswith("mem.kernel."):
            count(name, amount)

    with mock.patch.object(kernels, "guard_run", loops_guard), mock.patch.dict(
        kernels.KERNELS, LOOPS
    ), mock.patch.object(obs_metrics, "inc", inc):
        yield


def arm(
    registry: Mapping[str, Tuple[object, Dict[str, object]]],
) -> Dict[str, Tuple[object, Dict[str, object]]]:
    """A copy of ``registry`` with every runner held to the loops.

    A shippable runner travels by reference; any other stays an object,
    which only the in-process backend (``jobs=0``) can run.
    """
    armed = {}
    for experiment_id, (runner, kwargs) in registry.items():
        try:
            inner: object = runner_ref(runner)
        except TypeError:
            inner = runner
        armed[experiment_id] = (run, {**kwargs, RUNNER_KWARG: inner})
    return armed


def run(loops_runner: object, **kwargs: object) -> ExperimentResult:
    """The registered runner: the real one, inside :func:`loops_only`."""
    if isinstance(loops_runner, str):
        loops_runner = resolve_runner_ref(loops_runner)
    with loops_only():
        return getattr(loops_runner, "run", loops_runner)(**kwargs)
