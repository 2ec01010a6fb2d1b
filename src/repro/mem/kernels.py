"""Columnar batch-vectorized simulation kernels with a trust harness.

ROADMAP item 1: the per-reference pure-Python hot loops in
:mod:`repro.mem.cache`, :mod:`repro.mem.setassoc`,
:mod:`repro.mem.stack_distance` and :mod:`repro.mem.multiproc` are the
campaign bottleneck.  This module provides numpy batch implementations
of all four ("the vector tier") together with a :class:`KernelGuard`
harness that keeps them honest:

* every kernel chunk passes cheap structural sanity checks;
* every Nth chunk (``REPRO_KERNEL_VERIFY``) is replayed through the
  pure-Python oracle and compared exactly — counters, eviction order,
  histogram and full ``state_dict``;
* on any mismatch the guard records a typed
  :class:`~repro.runtime.errors.KernelDivergenceError`, writes a
  minimal repro bundle into the run directory, quarantines the kernel
  for the remainder of the process, and falls back to the oracle so
  the campaign completes *correctly* rather than fast;
* a deterministic fault injector (``REPRO_KERNELFAULT=KERNEL:KIND:NTH``)
  lets chaos tests and CI prove the detect → quarantine → fallback →
  complete path end to end.

Algorithm
---------

The three uniprocessor kernels reduce to exact Mattson stack depths.
For a chunk of block ids the depth of reference ``i`` (1-based count of distinct
blocks since the previous reference to the same block, inclusive) is

    depth[i] = #{ j in (prev[i], i] : next[j] > i }
             = S_i - D_{prev[i]}

where ``S_i = (i+1) - #{j : next[j] <= i}`` is the live-interval count
at time ``i`` and ``D_p = #{k < p : next[k] > next[p]}`` is a
per-element inversion count of the ``next`` sequence.  ``S`` comes from
one ``bincount``/``cumsum`` pass; ``D`` from a bit-wise radix
partition ("wavelet") sweep that needs no sorting or searching per
level.  Cross-chunk exactness uses a synthetic prefix: the simulator
state is fully characterised by its blocks in last-access order
(the same invariant ``StackDistanceRun._compact`` relies on), so
prepending those blocks as synthetic references makes chunk-local
depths equal the global ones.

Everything is value-sorts of packed int64 keys, ``bincount`` and
``cumsum`` — ``np.argsort``/``np.searchsorted`` are avoided entirely
(they are an order of magnitude slower on small/medium arrays).

The write-invalidate coherence kernel (infinite caches) needs no
depths: reference ``t`` of processor ``p`` hits iff ``p``'s previous
access to the block comes at or after the block's last write before
``t``, and a write invalidates every processor that touched the block
since the previous write.  Both fall out of two packed-key sorts per
window of the round-robin interleaving, with per-block processor
bitmasks carried between windows (see :class:`_CoherenceState`); only
the final LRU order uses ``argsort``.  Blocks index through a dense
table over their span, so :func:`guard_run` leaves sparse block ids to
the per-reference loop.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mem.trace import READ, Trace

KERNEL_KINDS = ("fullassoc", "setassoc", "stackdist", "multiproc")

#: Environment knobs (exported by :func:`configure_kernels` so worker
#: processes and dispatch nodes inherit the campaign's kernel policy).
TIER_ENV = "REPRO_KERNEL_TIER"
VERIFY_ENV = "REPRO_KERNEL_VERIFY"
FAULT_ENV = "REPRO_KERNELFAULT"
BUNDLE_DIR_ENV = "REPRO_KERNEL_BUNDLE_DIR"
MIN_REFS_ENV = "REPRO_KERNEL_MIN_REFS"

#: Below this many references per chunk the vector tier is not worth
#: the numpy fixed costs; the pure loops run instead.
DEFAULT_MIN_REFS = 2048

#: Default shadow-verification sampling period (chunk 0 always verifies).
DEFAULT_VERIFY_EVERY = 32

_FAULT_KINDS = ("wrong-count", "nan", "overflow", "crash")

# Refuse to pack block ids that could overflow int64 key space.
_MAX_BLOCK_ID = 1 << 44


# ---------------------------------------------------------------------------
# Vectorized stack-depth engine
# ---------------------------------------------------------------------------


def _pow2ceil(n: int) -> int:
    return 1 << max(int(n - 1).bit_length(), 0) if n > 1 else 1


def _per_element_inversions(ranks: np.ndarray) -> np.ndarray:
    """``D[j] = #{k < j : ranks[k] > ranks[j]}`` for distinct int ranks.

    Bit-wise top-down radix partition: a pair ``(k < j, rank_k >
    rank_j)`` is counted exactly once, at the highest bit where the two
    ranks diverge.  Per level: one cumsum, two gathers, two scatters —
    no sorts.  The element's rank and running count share one int64
    (``P``), as do its partition bounds (``Q``), halving scatter
    traffic; counts can never carry into the rank bits because
    ``D < m < 2**_PACK``.
    """
    m = int(ranks.shape[0])
    out = np.zeros(m, dtype=np.int64)
    if m < 2:
        return out
    nbits = int(m - 1).bit_length()
    pack = 29  # supports m up to 2**28 references per chunk
    mask = (1 << pack) - 1
    p = ranks.astype(np.int64) << pack
    q = np.full(m, m, dtype=np.int64)  # start=0, end=m packed
    pos = np.arange(m, dtype=np.int32)
    for shift in range(nbits - 1, -1, -1):
        # int64 only for the pack containers and fancy indices (int64
        # index gathers/scatters are ~3x faster than int32 ones here);
        # all per-pass arithmetic runs in int32.
        b = (p >> (pack + shift)).astype(np.int32) & 1
        start = q >> pack
        end = q & mask
        c = np.cumsum(b, dtype=np.int32)
        t = c - b  # ones strictly before each position (exclusive cumsum)
        tpad = np.append(t, c[-1])
        g_start = t[start]
        ones_before = t - g_start
        ones_total = tpad[end] - g_start
        p += ones_before * (1 - b)
        if shift == 0:
            break
        s32 = start.astype(np.int32)
        e32 = end.astype(np.int32)
        zeros_before = (pos - s32) - ones_before
        zeros_total = (e32 - s32) - ones_total
        dest = (
            s32
            + zeros_before
            + b * (zeros_total + ones_before - zeros_before)
        ).astype(np.int64)
        new_start = s32 + b * zeros_total
        new_q = (new_start.astype(np.int64) << pack) | (
            new_start + zeros_total + b * (ones_total - zeros_total)
        )
        p2 = np.empty_like(p)
        q2 = np.empty_like(q)
        p2[dest] = p
        q2[dest] = new_q
        p, q = p2, q2
    # p is in partition order but still carries each element's distinct
    # rank, so scatter counts to rank space and gather per position.
    by_rank = np.empty(m, dtype=np.int64)
    by_rank[p >> pack] = p & mask
    out[:] = by_rank[ranks]
    return out


def _link_occurrences(
    ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Link same-block occurrences in one packed value sort.

    Returns ``(prev, nxt, last_mask)``: index of the previous/next
    occurrence of each position's block (-1 / ``m`` when none) and a
    mask of each block's final occurrence.
    """
    m = int(ids.shape[0])
    arange = np.arange(m, dtype=np.int64)
    prev = np.full(m, -1, dtype=np.int64)
    nxt = np.full(m, m, dtype=np.int64)
    if m < 2:
        return prev, nxt, np.ones(m, dtype=bool)
    k = _pow2ceil(m)
    # Group occurrences by block id with one *value* sort of packed
    # (id, position) keys; within a block, positions come out ascending.
    packed = np.sort(ids * k + arange)
    pos_sorted = packed & (k - 1)
    id_sorted = packed // k
    same = np.empty(m, dtype=bool)
    same[0] = False
    np.equal(id_sorted[1:], id_sorted[:-1], out=same[1:])
    tail = pos_sorted[1:][same[1:]]
    head = pos_sorted[:-1][same[1:]]
    prev[tail] = head
    nxt[head] = tail
    return prev, nxt, nxt == m


def _stack_depths(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact LRU stack depths for one sequence of block ids.

    Returns ``(depth, prev, last_mask)`` where ``prev[i]`` is the index
    of the previous occurrence of ``ids[i]`` (-1 if none), ``depth[i]``
    is the 1-based Mattson stack depth (valid where ``prev[i] >= 0``)
    and ``last_mask[i]`` marks each block's final occurrence.
    """
    m = int(ids.shape[0])
    if m == 0:
        zero = np.zeros(0, dtype=np.int64)
        return zero, np.full(0, -1, dtype=np.int64), np.zeros(0, dtype=bool)
    arange = np.arange(m, dtype=np.int64)
    if m == 1:
        return (
            np.ones(1, dtype=np.int64),
            np.full(1, -1, dtype=np.int64),
            np.ones(1, dtype=bool),
        )
    prev, nxt, last_mask = _link_occurrences(ids)
    # Distinct sentinels (> every finite next) for final occurrences.
    nxt = nxt + last_mask * arange
    # S_i = (i+1) - #{j : next[j] <= i}; sentinels never land <= i.
    counts = np.bincount(nxt, minlength=2 * m)
    live = arange + 1 - np.cumsum(counts[:m])
    # Sentinel elements always outrank finite ones, so their
    # contribution to D is just "sentinels seen so far"; the wavelet
    # sweep only runs over the finite-next positions.
    finite = ~last_mask
    sent_before = np.cumsum(last_mask) - last_mask
    fin_next = nxt[finite]
    # Dense ranks of the (distinct) finite next values via bincount.
    fin_counts = np.cumsum(np.bincount(fin_next, minlength=m))
    fin_ranks = fin_counts[fin_next] - 1
    d_fin = _per_element_inversions(fin_ranks)
    d_all = np.zeros(m, dtype=np.int64)
    d_all[finite] = d_fin
    d_all += sent_before
    has_prev = prev >= 0
    depth = live - d_all[np.maximum(prev, 0)] * has_prev
    return depth, prev, last_mask


def _merge_sorted_unique(base: np.ndarray, extra: np.ndarray) -> Tuple[np.ndarray, int]:
    """Union of a sorted-unique array with new unique values.

    Returns ``(merged_sorted_unique, n_new)`` where ``n_new`` counts the
    values of ``extra`` not already present in ``base``.  One value
    sort; no searchsorted.
    """
    if extra.size == 0:
        return base, 0
    if base.size == 0:
        return np.sort(extra), int(extra.size)
    merged = np.sort(np.concatenate([base, extra]))
    keep = np.empty(merged.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    unique = merged[keep]
    return unique, int(extra.size - (merged.shape[0] - unique.shape[0]))


def _cache_stats_delta(
    kinds: np.ndarray, hit: np.ndarray
) -> Tuple[int, int, int, int]:
    is_read = kinds == READ
    reads = int(np.count_nonzero(is_read))
    writes = int(kinds.shape[0] - reads)
    miss = ~hit
    read_misses = int(np.count_nonzero(miss & is_read))
    write_misses = int(np.count_nonzero(miss) - read_misses)
    return reads, writes, read_misses, write_misses


def kernel_fullassoc(
    state: dict, blocks: np.ndarray, kinds: np.ndarray
) -> dict:
    """Vectorized fully-associative LRU chunk step.

    Pure function from a :meth:`FullyAssociativeCache.state_dict`-shaped
    snapshot plus one columnar chunk to the successor snapshot.
    """
    capacity = int(state["capacity_bytes"]) // int(state["block_size"])
    resident = state["lru_mru_to_lru"]
    prefix = np.asarray(resident[::-1], dtype=np.int64)  # oldest -> newest
    n = int(blocks.shape[0])
    f = int(prefix.shape[0])
    ext = np.concatenate([prefix, blocks]) if f else blocks
    depth, prev, last_mask = _stack_depths(ext)
    hit = (prev[f:] >= 0) & (depth[f:] <= capacity)
    reads, writes, read_misses, write_misses = _cache_stats_delta(kinds, hit)
    # Cold misses: first-in-ext blocks never seen before.  A first-ever
    # reference always misses, so every such block scores one cold miss.
    new_blocks = blocks[prev[f:] < 0]
    ever = np.asarray(state["ever_seen"], dtype=np.int64)
    ever_new, n_cold = _merge_sorted_unique(ever, new_blocks)
    # Final LRU contents: the capacity most recently used distinct
    # blocks; final occurrences in position order are exactly the
    # blocks by last access (oldest -> newest).
    by_last_access = ext[np.flatnonzero(last_mask)]
    mru_to_lru = by_last_access[-capacity:][::-1].tolist()
    old = state["stats"]
    return {
        "capacity_bytes": state["capacity_bytes"],
        "block_size": state["block_size"],
        "lru_mru_to_lru": [int(b) for b in mru_to_lru],
        "ever_seen": ever_new.tolist(),
        "stats": {
            "reads": int(old["reads"]) + reads,
            "writes": int(old["writes"]) + writes,
            "read_misses": int(old["read_misses"]) + read_misses,
            "write_misses": int(old["write_misses"]) + write_misses,
            "cold_misses": int(old["cold_misses"]) + n_cold,
        },
    }


def kernel_stackdist(
    state: dict, blocks: np.ndarray, kinds: np.ndarray
) -> dict:
    """Vectorized Mattson stack-distance chunk step.

    Pure function over :meth:`StackDistanceRun.state_dict` snapshots.
    """
    n = int(blocks.shape[0])
    prefix = np.asarray(state["blocks_by_last_access"], dtype=np.int64)
    f = int(prefix.shape[0])
    ext = np.concatenate([prefix, blocks]) if f else blocks
    depth, prev, last_mask = _stack_depths(ext)
    pos0 = int(state["pos"])
    counted = np.arange(pos0, pos0 + n, dtype=np.int64) >= int(state["warmup"])
    if state["count_reads_only"]:
        counted &= kinds == READ
    first = prev[f:] < 0
    cold_new = int(np.count_nonzero(first & counted))
    total_new = int(np.count_nonzero(counted))
    depths = depth[f:][counted & ~first]
    old_hist = np.asarray(state["hist"], dtype=np.int64)
    if depths.size:
        add = np.bincount(depths)
        size = max(old_hist.shape[0], add.shape[0])
        hist = np.zeros(size, dtype=np.int64)
        hist[: old_hist.shape[0]] = old_hist
        hist[: add.shape[0]] += add
    else:
        hist = old_hist
    nonzero = np.nonzero(hist)[0]
    top = int(nonzero[-1]) if nonzero.size else 0
    by_last_access = ext[np.flatnonzero(last_mask)]
    return {
        "block_size": state["block_size"],
        "count_reads_only": state["count_reads_only"],
        "warmup": state["warmup"],
        "pos": pos0 + n,
        "cold": int(state["cold"]) + cold_new,
        "total": int(state["total"]) + total_new,
        "blocks_by_last_access": by_last_access.tolist(),
        "hist": hist[: top + 1].tolist(),
    }


def kernel_setassoc(
    state: dict, blocks: np.ndarray, kinds: np.ndarray
) -> dict:
    """Vectorized set-associative LRU chunk step.

    One global stack-depth pass over the chunk stably grouped by set
    index: same-block references always share a set, so the grouped
    sequence gives exact per-set depths, and a reference hits iff its
    depth is at most the associativity.
    """
    assoc = int(state["associativity"])
    num_blocks = int(state["capacity_bytes"]) // int(state["block_size"])
    num_sets = num_blocks // assoc
    n = int(blocks.shape[0])
    set_of = blocks % num_sets
    touched_counts = np.bincount(set_of, minlength=num_sets)
    touched = touched_counts > 0
    old_counts = np.asarray(state["set_counts"], dtype=np.int64)
    old_orders = np.asarray(state["set_orders_mru_to_lru"], dtype=np.int64)
    old_offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(old_counts)]
    )
    # Synthetic prefix: residents of touched sets, per set oldest ->
    # newest (stored orders are MRU -> LRU, so reverse within set).
    pref_counts = np.where(touched, old_counts, 0)
    r = int(pref_counts.sum())
    if r:
        rows = np.repeat(np.arange(num_sets, dtype=np.int64), pref_counts)
        starts = np.repeat(old_offsets[:-1], pref_counts)
        counts_rep = np.repeat(old_counts, pref_counts)
        within = np.arange(r, dtype=np.int64) - np.repeat(
            np.cumsum(pref_counts) - pref_counts, pref_counts
        )
        src = starts + (counts_rep - 1) - within  # reversed within set
        pref_blocks = old_orders[src]
        pref_sets = rows
        all_blocks = np.concatenate([pref_blocks, blocks])
        all_sets = np.concatenate([pref_sets, set_of])
    else:
        all_blocks = blocks
        all_sets = set_of
    m = int(all_blocks.shape[0])
    seq = np.arange(m, dtype=np.int64)
    k = _pow2ceil(m)
    grouped = np.sort(all_sets * k + seq)
    order = grouped & (k - 1)
    g_blocks = all_blocks[order]
    chunk_rows = order >= r
    if assoc == 1 and m > 1:
        # Direct-mapped fast path: a reference hits iff the previous
        # reference to its set touched the same block — no stack-depth
        # (wavelet) pass needed, only occurrence linking for cold
        # misses and residency.
        prev, _, last_mask = _link_occurrences(g_blocks)
        g_sets = grouped // k
        hit_g = np.empty(m, dtype=bool)
        hit_g[0] = False
        np.equal(g_blocks[1:], g_blocks[:-1], out=hit_g[1:])
        hit_g[1:] &= g_sets[1:] == g_sets[:-1]
        hit_g &= chunk_rows
    else:
        depth, prev, last_mask = _stack_depths(g_blocks)
        hit_g = (prev >= 0) & (depth <= assoc) & chunk_rows
    orig = order[chunk_rows] - r
    hit = np.zeros(n, dtype=bool)
    hit[orig] = hit_g[chunk_rows]
    reads, writes, read_misses, write_misses = _cache_stats_delta(kinds, hit)
    first = np.zeros(n, dtype=bool)
    first[orig] = (prev < 0)[chunk_rows]
    new_blocks = blocks[first]
    ever = np.asarray(state["ever_seen"], dtype=np.int64)
    ever_new, n_cold = _merge_sorted_unique(ever, new_blocks)
    # New per-set residency: per set segment, final occurrences in
    # position order are LRU -> MRU; keep the most recent `assoc`.
    last_rows = np.flatnonzero(last_mask)
    lr_sets = all_sets[order[last_rows]]
    lr_blocks = g_blocks[last_rows]
    lr_total = np.bincount(lr_sets, minlength=num_sets)
    lr_start = np.cumsum(lr_total) - lr_total
    within_lr = np.arange(lr_blocks.shape[0], dtype=np.int64) - lr_start[lr_sets]
    from_end = lr_total[lr_sets] - within_lr  # 1 = most recent
    keep = from_end <= assoc
    kept_sets = lr_sets[keep]
    kept_blocks = lr_blocks[keep]
    kept_from_end = from_end[keep]
    new_counts = np.where(touched, np.minimum(lr_total, assoc), old_counts)
    new_offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(new_counts)]
    )
    total_new = int(new_offsets[-1])
    new_orders = np.empty(total_new, dtype=np.int64)
    # Untouched sets copy their old segments verbatim.
    keep_old = ~touched & (old_counts > 0)
    if np.any(keep_old):
        cnts = np.where(keep_old, old_counts, 0)
        tot = int(cnts.sum())
        rows_u = np.repeat(np.arange(num_sets, dtype=np.int64), cnts)
        within_u = np.arange(tot, dtype=np.int64) - np.repeat(
            np.cumsum(cnts) - cnts, cnts
        )
        new_orders[new_offsets[rows_u] + within_u] = old_orders[
            old_offsets[rows_u] + within_u
        ]
    # Touched sets: MRU -> LRU is from_end - 1.
    new_orders[new_offsets[kept_sets] + kept_from_end - 1] = kept_blocks
    old = state["stats"]
    return {
        "capacity_bytes": state["capacity_bytes"],
        "block_size": state["block_size"],
        "associativity": state["associativity"],
        "set_orders_mru_to_lru": new_orders.tolist(),
        "set_counts": new_counts.tolist(),
        "ever_seen": ever_new.tolist(),
        "stats": {
            "reads": int(old["reads"]) + reads,
            "writes": int(old["writes"]) + writes,
            "read_misses": int(old["read_misses"]) + read_misses,
            "write_misses": int(old["write_misses"]) + write_misses,
            "cold_misses": int(old["cold_misses"]) + n_cold,
        },
    }


#: Processors the coherence kernel handles: one bit each in an int64.
MULTIPROC_MAX_PROCESSORS = 62

#: References per interleaving window of the coherence kernel.  State
#: is carried between windows as columns, so memory stays bounded by
#: the window, never by the interleaved stream.
MULTIPROC_WINDOW_REFS = 1 << 14

_MP_STAT_KEYS = (
    "reads",
    "writes",
    "read_misses",
    "write_misses",
    "cold_misses",
    "coherence_misses",
    "capacity_misses",
    "invalidations_received",
    "remote_reads",
)


class _CoherenceState:
    """Columnar write-invalidate machine state over a block universe.

    ``universe`` is the sorted array of every block the call can touch;
    per block, ``resident``/``invalidated``/``seen`` hold one bit per
    processor, ``writer`` the last writer (-1 none), and ``last_t[p]``
    the time of processor ``p``'s last access (the LRU order of its
    residents; snapshot residents get negative times, MRU highest).
    """

    def __init__(self, state: dict, universe: np.ndarray) -> None:
        nprocs = int(state["num_processors"])
        size = int(universe.shape[0])
        self.universe = universe
        self.nprocs = nprocs
        # Blocks index through a dense table over the universe's span.
        self.lo = int(universe[0]) if size else 0
        span = int(universe[-1]) - self.lo + 1 if size else 0
        self.table = np.zeros(span, dtype=np.int64)
        self.table[universe - self.lo] = np.arange(size)
        self.resident = np.zeros(size, dtype=np.int64)
        self.invalidated = np.zeros(size, dtype=np.int64)
        self.seen = np.zeros(size, dtype=np.int64)
        self.writer = np.full(size, -1, dtype=np.int64)
        self.last_t = np.full((nprocs, size), -1, dtype=np.int64)
        for pid in range(nprocs):
            bit = np.int64(1) << pid
            order = self.index(state["caches_mru_to_lru"][pid])
            self.resident[order] |= bit
            self.last_t[pid, order] = -1 - np.arange(order.shape[0])
            self.seen[self.index(state["ever_seen"][pid])] |= bit
            self.invalidated[self.index(state["invalidated"][pid])] |= bit
        if state["last_writer"]:
            pairs = np.asarray(state["last_writer"], dtype=np.int64)
            self.writer[self.index(pairs[:, 0])] = pairs[:, 1]
        self.counts = {key: np.zeros(nprocs, dtype=np.int64) for key in _MP_STAT_KEYS}

    def index(self, blocks) -> np.ndarray:
        return self.table[np.asarray(blocks, dtype=np.int64) - self.lo]

    def step(self, pid: np.ndarray, blocks: np.ndarray, write: np.ndarray, t0: int) -> None:
        """Advance over one interleaved window (``t0`` = its start time)."""
        m = int(pid.shape[0])
        nprocs = self.nprocs
        bidx = self.index(blocks)
        k = _pow2ceil(m)
        local = np.arange(m, dtype=np.int64)
        # Order A: by block, then time.  Order B: by block, processor, time.
        key_a = np.sort(bidx * k + local)
        pos = key_a & (k - 1)
        b = key_a // k
        p = pid[pos]
        w = write[pos]
        key_b = np.sort((bidx * nprocs + pid) * k + local)
        pos_b = key_b & (k - 1)
        same_b = (key_b[1:] // k) == (key_b[:-1] // k)
        prev_own = np.full(m, -1, dtype=np.int64)  # by local position
        prev_own[pos_b[1:][same_b]] = pos_b[:-1][same_b]
        prev_own = prev_own[pos]

        group_start = np.empty(m, dtype=bool)
        group_start[0] = True
        np.not_equal(b[1:], b[:-1], out=group_start[1:])
        first_of_group = np.maximum.accumulate(np.where(group_start, local, 0))
        write_upto = np.maximum.accumulate(np.where(w, local, -1))
        last_write = np.empty(m, dtype=np.int64)  # strictly before, sorted idx
        last_write[0] = -1
        last_write[1:] = write_upto[:-1]
        has_write = last_write >= first_of_group
        last_write = np.maximum(last_write, 0)  # valid where has_write
        last_write_pos = np.where(has_write, pos[last_write], -1)

        bit = np.int64(1) << p
        res0 = (self.resident[b] & bit) != 0
        # Hit iff p's previous access comes at or after the block's last
        # write before this reference.
        hit = np.where(prev_own >= 0, prev_own >= last_write_pos, res0 & ~has_write)
        miss = ~hit
        inv0 = (self.invalidated[b] & bit) != 0
        seen0 = (self.seen[b] & bit) != 0
        coherence = miss & ((prev_own >= 0) | inv0 | res0)
        cold = miss & ~coherence & ~seen0
        capacity = miss & ~coherence & seen0
        writer = np.where(has_write, p[last_write], self.writer[b])
        read = ~w
        remote = miss & read & (writer >= 0) & (writer != p)

        # Each write invalidates the sharers accumulated since the
        # previous write to its block (the previous writer included).
        seg_start = group_start | w
        seg_idx = np.flatnonzero(seg_start)
        seg_or = np.bitwise_or.reduceat(bit, seg_idx)
        # Sharers carried in from before the window join the group's
        # first segment, unless that segment opens with a write.
        carried = group_start[seg_idx] & ~w[seg_idx]
        seg_or[carried] |= self.resident[b[seg_idx[carried]]]
        seg_id = np.cumsum(seg_start) - 1
        writes = np.flatnonzero(w)
        before = np.where(
            group_start[writes],
            self.resident[b[writes]],
            seg_or[np.maximum(seg_id[writes] - 1, 0)],
        )
        lost = before & ~bit[writes]
        self.counts["invalidations_received"] += [
            np.count_nonzero(lost & (np.int64(1) << q)) for q in range(nprocs)
        ]
        per_ref = {
            "reads": read,
            "writes": w,
            "read_misses": miss & read,
            "write_misses": miss & w,
            "cold_misses": cold,
            "coherence_misses": coherence,
            "capacity_misses": capacity,
            "remote_reads": remote,
        }
        for key, mask in per_ref.items():
            self.counts[key] += np.bincount(p[mask], minlength=nprocs)

        # Carry the window's end state for every block it touched.
        starts = np.flatnonzero(group_start)
        ends = np.append(starts[1:], m) - 1
        gb = b[starts]
        accessed = np.bitwise_or.reduceat(bit, starts)
        res_end = seg_or[seg_id[ends]]
        touched_or_held = accessed | self.resident[gb]
        self.invalidated[gb] = (self.invalidated[gb] & ~accessed) | (
            touched_or_held & ~res_end
        )
        self.seen[gb] |= accessed
        self.resident[gb] = res_end
        wrote = write_upto[ends] >= starts
        self.writer[gb[wrote]] = p[write_upto[ends][wrote]]
        last_b = np.empty(m, dtype=bool)
        last_b[-1] = True
        last_b[:-1] = ~same_b
        ends_b = pos_b[last_b]
        self.last_t[pid[ends_b], bidx[ends_b]] = t0 + ends_b

    def state_dict(self, pre: dict) -> dict:
        universe = self.universe
        caches, ever, invalid = [], [], []
        for pid in range(self.nprocs):
            bit = np.int64(1) << pid
            held = np.flatnonzero(self.resident & bit)
            order = held[np.argsort(-self.last_t[pid, held], kind="stable")]
            caches.append(universe[order].tolist())
            ever.append(universe[(self.seen & bit) != 0].tolist())
            invalid.append(universe[(self.invalidated & bit) != 0].tolist())
        shared = np.flatnonzero(self.resident)
        bits = (
            (self.resident[shared, None] >> np.arange(self.nprocs)) & 1
        ).astype(bool)
        pids = np.arange(self.nprocs)
        sharers = [
            [block, pids[row].tolist()]
            for block, row in zip(universe[shared].tolist(), bits)
        ]
        written = np.flatnonzero(self.writer >= 0)
        last_writer = np.stack(
            [universe[written], self.writer[written]], axis=1
        ).tolist()
        stats = [
            {key: int(old[key]) + int(self.counts[key][pid]) for key in _MP_STAT_KEYS}
            for pid, old in enumerate(pre["stats"])
        ]
        return {
            "num_processors": pre["num_processors"],
            "capacity_bytes": pre["capacity_bytes"],
            "block_size": pre["block_size"],
            "caches_mru_to_lru": caches,
            "ever_seen": ever,
            "invalidated": invalid,
            "sharers": sharers,
            "last_writer": last_writer,
            "stats": stats,
        }


def _block_universe(
    addrs: List[np.ndarray], block_size: int, known: np.ndarray
) -> np.ndarray:
    """Sorted distinct blocks of every trace plus ``known``, scattered
    one window at a time into a table over their span (no whole-trace
    temporaries; :func:`guard_run` declines spans too sparse for it)."""
    window = MULTIPROC_WINDOW_REFS
    bounds = [known] + [
        np.array([col.min(), col.max()]) // block_size for col in addrs if col.size
    ]
    flat = np.concatenate(bounds)
    if flat.size == 0:
        return flat
    lo = int(flat.min())
    seen = np.zeros(int(flat.max()) - lo + 1, dtype=bool)
    seen[known - lo] = True
    for col in addrs:
        for s in range(0, col.size, window):
            seen[col[s : s + window] // block_size - lo] = True
    return np.flatnonzero(seen) + lo


def kernel_multiproc(
    state: dict, addrs: List[np.ndarray], kinds: List[np.ndarray], budget=None
) -> dict:
    """Columnar write-invalidate coherence step over infinite caches.

    Pure function from a :meth:`MultiprocessorMemory.state_dict`
    snapshot plus one address/kind column pair per processor to the
    snapshot after their round-robin interleaving.  The interleaved
    stream is built and simulated in windows of at most
    :data:`MULTIPROC_WINDOW_REFS` references, with the budget polled
    once per window.
    """
    nprocs = int(state["num_processors"])
    block_size = int(state["block_size"])
    known = [
        block
        for key in ("caches_mru_to_lru", "ever_seen", "invalidated")
        for block_list in state[key]
        for block in block_list
    ]
    known.extend(block for block, _ in state["last_writer"])
    universe = _block_universe(addrs, block_size, np.asarray(known, dtype=np.int64))
    sim = _CoherenceState(state, universe)
    lengths = np.array([col.shape[0] for col in addrs], dtype=np.int64)
    rounds = int(lengths.max())
    step = max(MULTIPROC_WINDOW_REFS // nprocs, 1)
    t0 = 0
    for r0 in range(0, rounds, step):
        if budget is not None:
            budget.check("multiproc kernel window")
        r1 = min(r0 + step, rounds)
        live = np.clip(lengths - r0, 0, r1 - r0)
        grid_blocks = np.zeros((r1 - r0, nprocs), dtype=np.int64)
        grid_writes = np.zeros((r1 - r0, nprocs), dtype=bool)
        for pid in range(nprocs):
            count = int(live[pid])
            grid_blocks[:count, pid] = addrs[pid][r0 : r0 + count] // block_size
            grid_writes[:count, pid] = kinds[pid][r0 : r0 + count] != READ
        valid = np.arange(r1 - r0)[:, None] < live[None, :]
        pid_col = np.broadcast_to(
            np.arange(nprocs, dtype=np.int64), valid.shape
        )[valid]
        sim.step(pid_col, grid_blocks[valid], grid_writes[valid], t0)
        t0 += int(pid_col.shape[0])
    return sim.state_dict(state)


KERNELS = {
    "fullassoc": kernel_fullassoc,
    "setassoc": kernel_setassoc,
    "stackdist": kernel_stackdist,
    "multiproc": kernel_multiproc,
}

_SAMPLER_NAMES = {
    "fullassoc": "mem.fullassoc",
    "setassoc": "mem.setassoc",
    "stackdist": "mem.stackdist",
    "multiproc": "mem.multiproc",
}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

DEFAULT_TIER = "vector"
TIERS = ("vector", "oracle")


@dataclass(frozen=True)
class KernelConfig:
    """Ambient kernel policy for this process (and its workers)."""

    tier: str = DEFAULT_TIER
    verify_every: int = DEFAULT_VERIFY_EVERY
    min_refs: int = DEFAULT_MIN_REFS
    bundle_dir: Optional[Path] = None


_ACTIVE_CONFIG: Optional[KernelConfig] = None


def active_kernel_config() -> KernelConfig:
    """The installed configuration, else one assembled from environment."""
    if _ACTIVE_CONFIG is not None:
        return _ACTIVE_CONFIG
    tier = os.environ.get(TIER_ENV, "") or DEFAULT_TIER
    if tier not in TIERS:
        tier = DEFAULT_TIER
    bundle_raw = os.environ.get(BUNDLE_DIR_ENV, "")
    return KernelConfig(
        tier=tier,
        verify_every=_env_int(VERIFY_ENV, DEFAULT_VERIFY_EVERY),
        min_refs=_env_int(MIN_REFS_ENV, DEFAULT_MIN_REFS),
        bundle_dir=Path(bundle_raw) if bundle_raw else None,
    )


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            return default
        if value >= 0:
            return value
    return default


def configure_kernels(
    tier: Optional[str] = None,
    verify_every: Optional[int] = None,
    min_refs: Optional[int] = None,
    bundle_dir: Optional[Path] = None,
    export_env: bool = True,
) -> KernelConfig:
    """Install the ambient kernel configuration for this process.

    With ``export_env`` (the default) the configuration is also placed
    in ``os.environ`` so worker subprocesses and dispatched nodes —
    which inherit the supervisor's environment — apply the same kernel
    policy.  Unspecified fields keep their current (or environment)
    values.
    """
    global _ACTIVE_CONFIG
    base = active_kernel_config()
    config = KernelConfig(
        tier=tier if tier is not None else base.tier,
        verify_every=(
            int(verify_every) if verify_every is not None else base.verify_every
        ),
        min_refs=int(min_refs) if min_refs is not None else base.min_refs,
        bundle_dir=Path(bundle_dir) if bundle_dir is not None else base.bundle_dir,
    )
    if config.tier not in TIERS:
        raise ValueError(
            f"unknown kernel tier {config.tier!r} (expected one of {TIERS})"
        )
    if config.verify_every < 0:
        raise ValueError(f"verify_every must be >= 0 (got {config.verify_every})")
    if config.min_refs < 0:
        raise ValueError(f"min_refs must be >= 0 (got {config.min_refs})")
    _ACTIVE_CONFIG = config
    if export_env:
        os.environ[TIER_ENV] = config.tier
        os.environ[VERIFY_ENV] = str(config.verify_every)
        os.environ[MIN_REFS_ENV] = str(config.min_refs)
        if config.bundle_dir is not None:
            os.environ[BUNDLE_DIR_ENV] = str(config.bundle_dir)
        else:
            os.environ.pop(BUNDLE_DIR_ENV, None)
    return config


def clear_kernels(clear_env: bool = True) -> None:
    """Remove the ambient configuration (tests, teardown)."""
    global _ACTIVE_CONFIG
    _ACTIVE_CONFIG = None
    if clear_env:
        for name in (TIER_ENV, VERIFY_ENV, MIN_REFS_ENV, BUNDLE_DIR_ENV):
            os.environ.pop(name, None)


@contextmanager
def tier_override(tier: str):
    """Temporarily force a kernel tier in this process (no env export)."""
    if tier not in TIERS:
        raise ValueError(f"unknown kernel tier {tier!r} (expected one of {TIERS})")
    global _ACTIVE_CONFIG
    prev = _ACTIVE_CONFIG
    _ACTIVE_CONFIG = replace(active_kernel_config(), tier=tier)
    try:
        yield
    finally:
        _ACTIVE_CONFIG = prev


# ---------------------------------------------------------------------------
# Deterministic fault injection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelFault:
    """One injected kernel misbehavior: fire on the NTH guarded chunk
    (1-based, per kernel) of ``kernel``."""

    kernel: str
    kind: str
    nth: int


def parse_fault_spec(raw: str) -> List[KernelFault]:
    """Parse ``KERNEL:KIND:NTH[,KERNEL:KIND:NTH...]`` fault grammar."""
    faults: List[KernelFault] = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValueError(
                f"bad kernel fault {part!r}: expected KERNEL:KIND:NTH"
            )
        kernel, kind, nth_raw = pieces
        if kernel not in KERNEL_KINDS:
            raise ValueError(
                f"bad kernel fault {part!r}: kernel must be one of "
                f"{KERNEL_KINDS}"
            )
        if kind not in _FAULT_KINDS:
            raise ValueError(
                f"bad kernel fault {part!r}: kind must be one of {_FAULT_KINDS}"
            )
        try:
            nth = int(nth_raw)
        except ValueError:
            raise ValueError(f"bad kernel fault {part!r}: NTH must be an integer")
        if nth < 1:
            raise ValueError(f"bad kernel fault {part!r}: NTH must be >= 1")
        faults.append(KernelFault(kernel=kernel, kind=kind, nth=nth))
    return faults


_BAD_FAULT_SPEC_SEEN: Optional[str] = None


def _active_faults() -> List[KernelFault]:
    global _BAD_FAULT_SPEC_SEEN
    raw = os.environ.get(FAULT_ENV, "")
    if not raw:
        return []
    try:
        return parse_fault_spec(raw)
    except ValueError as exc:
        # A typo in the fault grammar must not corrupt or abort a real
        # campaign: surface it once through the event stream and ignore.
        if _BAD_FAULT_SPEC_SEEN != raw:
            _BAD_FAULT_SPEC_SEEN = raw
            _EVENTS.append(
                {
                    "kernel": None,
                    "chunk": None,
                    "reason": "bad-fault-spec",
                    "detail": str(exc),
                    "category": "kernel-divergence",
                    "error": f"ignored invalid {FAULT_ENV}: {exc}",
                    "bundle": None,
                }
            )
        return []


def _apply_fault(kernel: str, fault_kind: str, post: dict, pre: dict) -> bool:
    """Mutate a kernel result in place to simulate misbehavior.

    ``wrong-count`` is crafted to slip past the structural sanity
    checks so only shadow verification can catch it; ``nan`` and
    ``overflow`` are exactly what sanity is for.  Returns whether a
    mutation was actually applied.
    """
    if kernel == "stackdist":
        if fault_kind == "nan":
            post["total"] = float("nan")
            return True
        if fault_kind == "overflow":
            post["total"] = int(post["total"]) + (1 << 62)
            return True
        hist = [int(v) for v in post["hist"]]
        idx = next((i for i in range(len(hist)) if i > 0 and hist[i] > 0), None)
        if idx is not None:
            hist[idx] -= 1
            if idx + 1 >= len(hist):
                hist.append(0)
            hist[idx + 1] += 1
            post["hist"] = hist
            return True
        if int(post["cold"]) > int(pre["cold"]):
            while len(hist) < 2:
                hist.append(0)
            hist[1] += 1
            post["cold"] = int(post["cold"]) - 1
            post["hist"] = hist
            return True
        order = list(post["blocks_by_last_access"])
        if len(order) >= 2:
            order[0], order[1] = order[1], order[0]
            post["blocks_by_last_access"] = order
            return True
        return False
    if kernel == "multiproc":
        return _apply_multiproc_fault(fault_kind, post, pre)
    stats = post["stats"]
    if fault_kind == "nan":
        stats["read_misses"] = float("nan")
        return True
    if fault_kind == "overflow":
        stats["reads"] = int(stats["reads"]) + (1 << 62)
        return True
    old = pre["stats"]
    d_reads = int(stats["reads"]) - int(old["reads"])
    d_writes = int(stats["writes"]) - int(old["writes"])
    d_rm = int(stats["read_misses"]) - int(old["read_misses"])
    d_wm = int(stats["write_misses"]) - int(old["write_misses"])
    if d_rm > 0 and d_wm < d_writes:
        stats["read_misses"] -= 1
        stats["write_misses"] += 1
        return True
    if d_wm > 0 and d_rm < d_reads:
        stats["write_misses"] -= 1
        stats["read_misses"] += 1
        return True
    if d_rm < d_reads:
        stats["read_misses"] += 1
        return True
    if d_wm < d_writes:
        stats["write_misses"] += 1
        return True
    return False


def _apply_multiproc_fault(fault_kind: str, post: dict, pre: dict) -> bool:
    """Per-processor variant of :func:`_apply_fault`: ``wrong-count``
    reclassifies one miss of the first processor that missed, which
    keeps every sanity invariant (cold + coherence + capacity = misses)."""
    stats = post["stats"]
    if fault_kind == "nan":
        stats[0]["read_misses"] = float("nan")
        return True
    if fault_kind == "overflow":
        stats[0]["reads"] = int(stats[0]["reads"]) + (1 << 62)
        return True
    moves = (
        ("coherence_misses", "capacity_misses"),
        ("cold_misses", "capacity_misses"),
        ("capacity_misses", "coherence_misses"),
    )
    for new, old in zip(stats, pre["stats"]):
        for source, target in moves:
            if int(new[source]) > int(old[source]):
                new[source] -= 1
                new[target] += 1
                return True
    return False


# ---------------------------------------------------------------------------
# Trust harness state
# ---------------------------------------------------------------------------


def _new_kernel_state() -> dict:
    return {
        "attempts": 0,
        "chunks": 0,
        "verified": 0,
        "divergences": 0,
        "fallback_chunks": 0,
        "quarantined": False,
    }


_STATE: Dict[str, dict] = {kind: _new_kernel_state() for kind in KERNEL_KINDS}
_EVENTS: List[dict] = []
_REPLAYING = False


def kernel_state(kind: str) -> dict:
    """A copy of one kernel's harness counters (tests, introspection)."""
    return dict(_STATE[kind])


def quarantined(kind: str) -> bool:
    return bool(_STATE[kind]["quarantined"])


def drain_kernel_events() -> List[dict]:
    """Return and clear the pending divergence/fallback event records.

    The campaign engine drains this after every in-process attempt;
    worker processes ship it back inside the payload ``obs`` block.
    """
    events = _EVENTS[:]
    del _EVENTS[:]
    return events


def reset_kernel_state() -> None:
    """Forget quarantines, counters and pending events (tests)."""
    global _BAD_FAULT_SPEC_SEEN
    for state in _STATE.values():
        state.update(_new_kernel_state())
    del _EVENTS[:]
    _BAD_FAULT_SPEC_SEEN = None


# ---------------------------------------------------------------------------
# Sanity checks, oracle replay, divergence handling
# ---------------------------------------------------------------------------


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_STAT_KEYS = ("reads", "writes", "read_misses", "write_misses", "cold_misses")


def _sanity(
    kernel: str, pre: dict, post: dict, n: int, kinds: np.ndarray
) -> Optional[str]:
    """Cheap structural invariants checked on *every* kernel chunk.

    Returns a reason string on violation, ``None`` when clean.  These
    catch corrupt-value failure modes (NaN, overflow, impossible
    deltas) without paying for an oracle replay.
    """
    try:
        if kernel == "multiproc":
            return _multiproc_sanity(pre, post, kinds)
        if kernel == "stackdist":
            for key in ("pos", "cold", "total"):
                value = post[key]
                if not _is_count(value) or value < 0:
                    return f"{key} is not a non-negative int"
            if int(post["pos"]) - int(pre["pos"]) != n:
                return "pos did not advance by the chunk size"
            d_total = int(post["total"]) - int(pre["total"])
            d_cold = int(post["cold"]) - int(pre["cold"])
            if not 0 <= d_total <= n:
                return "total delta outside [0, chunk size]"
            if not 0 <= d_cold <= d_total:
                return "cold delta outside [0, total delta]"
            hist = post["hist"]
            if not all(_is_count(v) and v >= 0 for v in hist):
                return "hist contains a non-int or negative entry"
            if sum(hist) + int(post["cold"]) != int(post["total"]):
                return "hist mass plus cold misses != total"
            return None
        old_stats = pre["stats"]
        stats = post["stats"]
        for key in _STAT_KEYS:
            value = stats[key]
            if not _is_count(value) or value < 0:
                return f"stats.{key} is not a non-negative int"
            delta = value - int(old_stats[key])
            if delta < 0:
                return f"stats.{key} decreased"
            if delta > n:
                return f"stats.{key} delta exceeds chunk size"
        n_reads = int(np.count_nonzero(kinds == READ))
        if int(stats["reads"]) - int(old_stats["reads"]) != n_reads:
            return "read count does not match chunk"
        if int(stats["writes"]) - int(old_stats["writes"]) != n - n_reads:
            return "write count does not match chunk"
        d_misses = (
            int(stats["read_misses"])
            - int(old_stats["read_misses"])
            + int(stats["write_misses"])
            - int(old_stats["write_misses"])
        )
        d_cold = int(stats["cold_misses"]) - int(old_stats["cold_misses"])
        if d_cold > d_misses:
            return "cold-miss delta exceeds miss delta"
        if len(post["ever_seen"]) < len(pre["ever_seen"]):
            return "ever_seen shrank"
        capacity = int(post["capacity_bytes"]) // int(post["block_size"])
        if kernel == "fullassoc":
            if len(post["lru_mru_to_lru"]) > capacity:
                return "LRU holds more blocks than capacity"
        else:
            assoc = int(post["associativity"])
            counts = post["set_counts"]
            if any(c > assoc for c in counts):
                return "a set holds more blocks than its associativity"
            if sum(counts) != len(post["set_orders_mru_to_lru"]):
                return "set_counts disagree with flattened orders"
        return None
    except (KeyError, TypeError, ValueError):
        return "malformed kernel state"


def _multiproc_sanity(
    pre: dict, post: dict, kinds: List[np.ndarray]
) -> Optional[str]:
    """Per-processor invariants of one coherence-kernel call."""
    if len(post["stats"]) != len(kinds) or len(pre["stats"]) != len(kinds):
        return "stats do not cover every processor"
    for pid, (old, new, col) in enumerate(zip(pre["stats"], post["stats"], kinds)):
        delta = {}
        for key in _MP_STAT_KEYS:
            value = new[key]
            if not _is_count(value) or value < 0:
                return f"p{pid} stats.{key} is not a non-negative int"
            delta[key] = value - int(old[key])
            if delta[key] < 0:
                return f"p{pid} stats.{key} decreased"
        n = int(col.shape[0])
        n_reads = int(np.count_nonzero(col == READ))
        if delta["reads"] != n_reads or delta["writes"] != n - n_reads:
            return f"p{pid} read/write counts do not match its trace"
        misses = delta["read_misses"] + delta["write_misses"]
        if misses > n:
            return f"p{pid} misses exceed accesses"
        classes = (
            delta["cold_misses"] + delta["coherence_misses"] + delta["capacity_misses"]
        )
        if classes != misses:
            return f"p{pid} cold + coherence + capacity != misses"
    return None


def _fresh_sim(kernel: str, state: dict):
    if kernel == "fullassoc":
        from repro.mem.cache import FullyAssociativeCache

        return FullyAssociativeCache(
            capacity_bytes=int(state["capacity_bytes"]),
            block_size=int(state["block_size"]),
        )
    if kernel == "setassoc":
        from repro.mem.setassoc import SetAssociativeCache

        return SetAssociativeCache(
            capacity_bytes=int(state["capacity_bytes"]),
            block_size=int(state["block_size"]),
            associativity=int(state["associativity"]),
        )
    if kernel == "multiproc":
        from repro.mem.multiproc import MultiprocessorMemory

        return MultiprocessorMemory(
            int(state["num_processors"]),
            capacity_bytes=state["capacity_bytes"],
            block_size=int(state["block_size"]),
        )
    from repro.mem.stack_distance import StackDistanceRun

    return StackDistanceRun(
        block_size=int(state["block_size"]),
        count_reads_only=bool(state["count_reads_only"]),
        warmup=int(state["warmup"]),
    )


def _oracle_replay(kernel: str, pre: dict, trace: Trace, budget) -> dict:
    """Replay one chunk through the pure-Python oracle from ``pre``."""
    global _REPLAYING
    from repro.obs.metrics import suppress_hot_loop_sampling

    sim = _fresh_sim(kernel, pre)
    sim.load_state_dict(pre)
    _REPLAYING = True
    try:
        with suppress_hot_loop_sampling():
            if kernel == "stackdist":
                sim.feed(trace, budget)
            elif kernel == "multiproc":
                sim.run_traces(trace)
            else:
                sim.run(trace, budget)
    finally:
        _REPLAYING = False
    return sim.state_dict()


def _canonical(state: dict) -> str:
    return json.dumps(state, sort_keys=True, allow_nan=True)


def _write_bundle(
    kernel: str,
    config: KernelConfig,
    ordinal: int,
    pre: dict,
    blocks: np.ndarray,
    kinds: np.ndarray,
    reason: str,
    detail: str,
    kernel_state_dict: Optional[dict],
    oracle_state_dict: Optional[dict],
) -> Optional[Path]:
    """Persist a minimal repro bundle; best-effort (never raises)."""
    if config.bundle_dir is None:
        return None
    try:
        config.bundle_dir.mkdir(parents=True, exist_ok=True)
        path = config.bundle_dir / f"{kernel}-chunk{ordinal:06d}.json"
        if kernel == "multiproc":  # the kernel is handed addresses
            blocks = [col // int(pre["block_size"]) for col in blocks]
        payload = {
            "format": BUNDLE_FORMAT,
            "kernel": kernel,
            "chunk": ordinal,
            "reason": reason,
            "detail": detail,
            "pre_state": pre,
            "kernel_state": kernel_state_dict,
            "oracle_state": oracle_state_dict,
            "blocks": _json_columns(blocks),
            "kinds": _json_columns(kinds),
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
        return path
    except (OSError, TypeError, ValueError):
        return None


BUNDLE_FORMAT = "kernel-divergence-bundle-v1"


def _json_columns(columns) -> list:
    """One column as a list of ints; per-processor columns as a list of
    such lists."""
    if isinstance(columns, list):
        return [_json_columns(col) for col in columns]
    return [int(v) for v in columns.tolist()]


def _record_divergence(
    kernel: str,
    config: KernelConfig,
    state: dict,
    ordinal: int,
    pre: dict,
    blocks: np.ndarray,
    kinds: np.ndarray,
    reason: str,
    detail: str = "",
    kernel_state_dict: Optional[dict] = None,
    oracle_state_dict: Optional[dict] = None,
) -> None:
    """Quarantine a diverged kernel and leave a full audit trail."""
    from repro.obs import metrics as obs_metrics
    from repro.runtime.errors import KernelDivergenceError

    state["divergences"] += 1
    state["fallback_chunks"] += 1
    state["quarantined"] = True
    suffix = f": {detail}" if detail else ""
    error = KernelDivergenceError(
        f"{kernel} kernel diverged on guarded chunk {ordinal} "
        f"({reason}{suffix}); kernel quarantined for this process, "
        f"oracle fallback engaged"
    )
    bundle = _write_bundle(
        kernel,
        config,
        ordinal,
        pre,
        blocks,
        kinds,
        reason,
        detail,
        kernel_state_dict,
        oracle_state_dict,
    )
    obs_metrics.inc(f"mem.kernel.{kernel}.divergences")
    obs_metrics.inc(f"mem.kernel.{kernel}.fallback_chunks")
    obs_metrics.set_gauge(f"mem.kernel.{kernel}.tier", 0.0)
    _EVENTS.append(
        {
            "kernel": kernel,
            "chunk": ordinal,
            "reason": reason,
            "detail": detail,
            "category": error.category,
            "error": str(error),
            "bundle": str(bundle) if bundle is not None else None,
        }
    )


def _miss_delta(kernel: str, pre: dict, post: dict) -> int:
    if kernel == "stackdist":
        return int(post["cold"]) - int(pre["cold"])
    if kernel == "multiproc":
        return sum(
            int(new[key]) - int(old[key])
            for old, new in zip(pre["stats"], post["stats"])
            for key in ("read_misses", "write_misses")
        )
    return (
        int(post["stats"]["read_misses"])
        - int(pre["stats"]["read_misses"])
        + int(post["stats"]["write_misses"])
        - int(pre["stats"]["write_misses"])
    )


def _multiproc_block_span(sim, traces) -> int:
    """Blocks from the lowest to the highest id the coherence kernel
    would map: the traces' and every block held in ``sim``'s state."""
    size = sim.block_size
    ends = []
    for t in traces:
        if len(t):
            ends += [int(t.addrs.min()) // size, int(t.addrs.max()) // size]
    held = [*sim._ever_seen, *sim._invalidated, sim._last_writer.keys()]
    held += [list(cache.keys_mru_to_lru()) for cache in sim._caches]
    for blocks in held:
        if blocks:
            ends += [min(blocks), max(blocks)]
    return max(ends) - min(ends) + 1 if ends else 0


def guard_run(kernel: str, sim, trace, budget=None) -> bool:
    """Try to advance ``sim`` over ``trace`` with a vectorized kernel.

    The trust-harness entry point the simulators call at the top of
    their hot loops.  Returns ``True`` when the kernel ran and the
    simulator state was updated (the caller is done); ``False`` when
    the caller must run its pure-Python loop — oracle tier, small or
    out-of-domain chunk, quarantined kernel, or a divergence detected
    on this very chunk.  In every ``False`` case the simulator is
    untouched.
    """
    if _REPLAYING:
        return False
    config = active_kernel_config()
    state = _STATE[kernel]
    if config.tier != "vector" or state["quarantined"]:
        return False
    if kernel == "multiproc":
        # Infinite caches and in-memory traces only.
        if (
            sim.capacity_blocks is not None
            or sim.num_processors > MULTIPROC_MAX_PROCESSORS
            or any(hasattr(t, "iter_chunks") for t in trace)
        ):
            return False
        n = sum(len(t) for t in trace)
    else:
        n = len(trace)
    if n == 0 or n < max(config.min_refs, 1) or n >= (1 << 28):
        return False
    from repro.obs import metrics as obs_metrics
    from repro.obs.metrics import hot_loop_sampler
    from repro.runtime.budget import active_budget
    from repro.runtime.errors import BudgetExceeded

    if kernel == "multiproc":
        # The kernel maps blocks through a dense table over their span;
        # sparser block ids stay with the per-reference loop.
        if _multiproc_block_span(sim, trace) > max(1 << 16, 8 * n):
            return False
        blocks = [t.addrs for t in trace]  # divided per window
        kinds = [t.kinds for t in trace]
    else:
        blocks = trace.block_ids(sim.block_size)
        kinds = trace.kinds
        bmin = int(blocks.min())
        bmax = int(blocks.max())
        # The depth engine packs (id, position) into int64 keys; the block
        # ids must leave room for the position bits of the prefixed chunk.
        if kernel == "stackdist":
            prefix_bound = len(sim._last_time)
        else:
            prefix_bound = sim.capacity_bytes // sim.block_size
        k = _pow2ceil(n + prefix_bound + 1)
        if bmin < 0 or bmax >= min(_MAX_BLOCK_ID, (1 << 62) // k):
            return False
    if budget is None:
        budget = active_budget()
    if budget is not None:
        budget.check(f"{kernel} kernel chunk")
    state["attempts"] += 1
    ordinal = state["attempts"]
    fault = next(
        (
            f
            for f in _active_faults()
            if f.kernel == kernel and f.nth == ordinal
        ),
        None,
    )
    pre = sim.state_dict()
    sampler = hot_loop_sampler(_SAMPLER_NAMES[kernel])
    fault_applied = False
    try:
        if fault is not None and fault.kind == "crash":
            fault_applied = True
            raise RuntimeError(
                f"injected kernel crash ({kernel} chunk {ordinal})"
            )
        extra = {"budget": budget} if kernel == "multiproc" else {}
        post = KERNELS[kernel](pre, blocks, kinds, **extra)
        if fault is not None and not fault_applied:
            fault_applied = _apply_fault(kernel, fault.kind, post, pre)
    except BudgetExceeded:
        raise  # a deadline inside the kernel is the caller's, not a divergence
    except Exception as exc:  # noqa: BLE001 — fallback is the contract
        _record_divergence(
            kernel,
            config,
            state,
            ordinal,
            pre,
            blocks,
            kinds,
            reason="kernel-crash",
            detail=f"{type(exc).__name__}: {exc}",
        )
        return False
    reason = _sanity(kernel, pre, post, n, kinds)
    if reason is not None:
        _record_divergence(
            kernel,
            config,
            state,
            ordinal,
            pre,
            blocks,
            kinds,
            reason="sanity",
            detail=reason,
            kernel_state_dict=post,
        )
        return False
    verify = config.verify_every > 0 and (
        (ordinal - 1) % config.verify_every == 0
    )
    if fault_applied:
        # An injected fault must always reach the detector it targets.
        verify = True
    if verify:
        state["verified"] += 1
        obs_metrics.inc(f"mem.kernel.{kernel}.verified")
        expected = _oracle_replay(kernel, pre, trace, budget)
        if _canonical(post) != _canonical(expected):
            _record_divergence(
                kernel,
                config,
                state,
                ordinal,
                pre,
                blocks,
                kinds,
                reason="shadow-verify",
                detail="kernel state differs from oracle replay",
                kernel_state_dict=post,
                oracle_state_dict=expected,
            )
            return False
    sim.load_state_dict(post)
    state["chunks"] += 1
    if sampler is not None:
        sampler.finish(refs=n, misses=_miss_delta(kernel, pre, post))
    obs_metrics.inc(f"mem.kernel.{kernel}.chunks")
    obs_metrics.set_gauge(f"mem.kernel.{kernel}.tier", 1.0)
    return True
