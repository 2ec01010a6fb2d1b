"""Columnar batch-vectorized simulation kernels.

The numpy engines behind every simulator: pure functions from a
simulator's ``state_dict()`` plus one columnar chunk to the successor
snapshot.  ``stackdist`` is the only engine of
:class:`~repro.mem.stack_distance.StackDistanceRun`, and so of every
fully associative view (:mod:`repro.mem.cache`,
:mod:`repro.mem.hierarchy`, :mod:`repro.mem.prefetch`), which read
their hits off it; ``setassoc`` is the only engine of
:class:`~repro.mem.setassoc.SetAssociativeCache`.  ``multiproc`` covers
the infinite-cache machines of :mod:`repro.mem.multiproc`, whose
per-reference loop stays the engine for the rest (finite caches, more
than :data:`MULTIPROC_MAX_PROCESSORS` processors, sparse block ids).
:func:`guard_run` is the one dispatch point.  A uniprocessor chunk
outside its kernel's domain (a negative block id, a block id too large
for the packed keys, a prefixed chunk of :data:`MAX_REFS` references or
more) is an input error: ``ValueError``, simulator untouched.

Trust lives in the tests and in CI, not in the runtime.  The test
suite holds every kernel to a per-reference loop over the same
snapshots at every chunk boundary (``tests/harness/loops.py``: hypothesis
differentials, adversarial and run-heavy traces, the default
configuration), and CI runs the whole ``--quick`` campaign again with
every simulator held to those loops and requires identical results.
At runtime each chunk pays only O(1) checks on its scalar deltas; a
kernel result that breaks one raises
:class:`~repro.runtime.errors.KernelDivergenceError` and leaves the
simulator untouched.

Algorithm
---------

The uniprocessor kernels reduce to exact Mattson stack depths.
For a chunk of block ids the depth of reference ``i`` (1-based count of distinct
blocks since the previous reference to the same block, inclusive) is

    depth[i] = #{ j in (prev[i], i] : next[j] > i }
             = S_i - D_{prev[i]}

where ``S_i`` is the number of distinct blocks seen through ``i`` (a
cumsum of first occurrences) and ``D_p = #{k < p : next[k] > next[p]}``
is a per-element inversion count of the ``next`` sequence.  The
finite ``next`` values are the positions that have a ``prev``, so
their dense ranks come from one more cumsum, and ``D`` from a bit-wise
radix partition over that dense permutation: at every level each
element's segment is the aligned block of positions holding its rank
prefix, so a level is two stable compressions and no segment bounds
are carried.  Cross-chunk exactness uses a synthetic prefix: the
simulator state is fully characterised by its blocks in last-access
order (the state ``StackDistanceRun`` keeps), so
prepending those blocks as synthetic references makes chunk-local
depths equal the global ones.  The engine runs on run heads only: a
reference repeating the block just before it has depth 1 and changes
no other depth, so it is dropped and added back afterwards.

The set-associative kernel takes many caches ("views") at once and
makes one pass per distinct set count over the chunk grouped by set: a
reference hits an A-way view iff its per-set depth is at most A
(Mattson inclusion, set by set).

One value sort of packed int64 ``(id, position)`` keys links the
occurrences; everything after it is int32 cumsums, compressions and
gathers — ``np.argsort``/``np.searchsorted`` are avoided entirely
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
the per-reference loop of :class:`~repro.mem.multiproc.MultiprocessorMemory`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.mem.trace import READ

KERNEL_KINDS = ("setassoc", "stackdist", "multiproc")

# Refuse to pack block ids that could overflow int64 key space.
_MAX_BLOCK_ID = 1 << 44


# ---------------------------------------------------------------------------
# Vectorized stack-depth engine
# ---------------------------------------------------------------------------


def _pow2ceil(n: int) -> int:
    return 1 << max(int(n - 1).bit_length(), 0) if n > 1 else 1


def _deal(clear: np.ndarray, set_: np.ndarray, half: int, out: np.ndarray) -> None:
    """Fill each aligned block of ``2 * half`` positions of ``out`` with
    its share of ``clear`` and then of ``set_`` (both in stream order):
    ``half`` of each for a full block, what is left for the last one."""
    rows = out.shape[0] // (2 * half)
    split = rows * half
    blocks = out[: 2 * split].reshape(rows, 2, half)
    blocks[:, 0] = clear[:split].reshape(rows, half)
    blocks[:, 1] = set_[:split].reshape(rows, half)
    tail = split + clear.shape[0]
    out[2 * split : tail] = clear[split:]
    out[tail:] = set_[split:]


def _per_element_inversions(ranks: np.ndarray) -> np.ndarray:
    """Inversion counts of a permutation ``ranks`` of ``0..m-1``, in
    rank order: ``out[ranks[j]] = #{k < j : ranks[k] > ranks[j]}``.

    Top-down radix partition: a pair ``(k < j, ranks[k] > ranks[j])``
    is counted once, at the highest bit where the two ranks differ.
    The ranks are dense, so once the elements are partitioned on the
    bits above ``s``, each sits in the aligned block of ``2**(s+1)``
    positions that holds its rank prefix, and that block holds
    ``min(2**s, m - start)`` elements with bit ``s`` clear.  A level is
    two stable compressions (bit clear, bit set) dealt back into the
    blocks; no segment bounds are carried.  A cleared element gains the
    set ones before it in its block, which is how far the level moves
    it left.  After bit 0 every element sits at its rank.
    """
    m = int(ranks.shape[0])
    counts = np.zeros(m, dtype=np.int32)
    rank = ranks.astype(np.int32)
    positions = np.arange(m, dtype=np.int32)
    for shift in range(int(m - 1).bit_length() - 1, -1, -1):
        half = 1 << shift
        clear = (rank & half) == 0
        # Old position less new: the j-th cleared one lands at j + (j & -half).
        moved = np.compress(clear, counts + positions)
        j = positions[: moved.shape[0]]
        moved -= j
        moved -= j & -half
        rank_clear = np.compress(clear, rank)
        np.logical_not(clear, out=clear)
        rank_set = np.compress(clear, rank)
        counts_set = np.compress(clear, counts)
        del clear
        _deal(rank_clear, rank_set, half, rank)
        _deal(moved, counts_set, half, counts)
    return counts


def _link_occurrences(
    ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Link same-block occurrences in one packed value sort.

    Returns ``(prev, nxt, last_mask)``: index of the previous/next
    occurrence of each position's block (-1 / ``m`` when none; int32)
    and a mask of each block's final occurrence.
    """
    m = int(ids.shape[0])
    prev = np.full(m, -1, dtype=np.int32)
    nxt = np.full(m, m, dtype=np.int32)
    k = _pow2ceil(m)
    # Group occurrences by block id with one in-place *value* sort of
    # packed (id, position) keys; within a block, positions ascend.
    packed = np.multiply(ids, k, dtype=np.int64)
    packed += np.arange(m, dtype=np.int64)
    packed.sort()
    same = (packed[1:] ^ packed[:-1]) < k
    packed &= k - 1
    pos = packed.astype(np.int32)
    del packed
    tail = np.compress(same, pos[1:])
    head = np.compress(same, pos[:-1])
    del pos, same
    prev[tail] = head
    nxt[head] = tail
    return prev, nxt, nxt == m


def _stack_depths(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact LRU stack depths for one sequence of block ids.

    Returns int32 ``(depth, prev)`` and ``last_mask``: ``prev[i]`` is
    the index of the previous occurrence of ``ids[i]`` (-1 if none),
    ``depth[i]`` the 1-based Mattson stack depth where ``prev[i] >= 0``
    (elsewhere the distinct blocks seen through ``i``), and
    ``last_mask[i]`` marks each block's final occurrence.

    Run compression: a reference repeating the block just before it
    has depth 1, and dropping it changes no other depth (any window
    ``(prev, i]`` containing it also contains its predecessor, the same
    block).  So the engine runs on the run heads only and the result is
    expanded: a repeat gets ``prev = i - 1``, a head's ``prev`` is the
    end of its block's previous run, and run ends carry ``last_mask``.
    """
    m = int(ids.shape[0])
    head = np.ones(m, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=head[1:])
    if head.all():
        del head  # hold nothing extra through the full-size pass
        return _run_head_depths(ids)
    heads = np.flatnonzero(head)
    del head
    depth_h, prev_h, last_h = _run_head_depths(ids[heads])
    run_end = np.append(heads[1:], m) - 1
    depth = np.ones(m, dtype=np.int32)
    depth[heads] = depth_h
    prev = np.arange(-1, m - 1, dtype=np.int32)
    prev[heads] = np.where(prev_h >= 0, run_end[prev_h], -1)
    last_mask = np.zeros(m, dtype=bool)
    last_mask[run_end[last_h]] = True
    return depth, prev, last_mask


def _run_head_depths(
    ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_stack_depths` for a sequence with no immediate repeats
    (any sequence is correct; repeats just cost full price)."""
    prev, nxt, last_mask = _link_occurrences(ids)
    has_prev = prev >= 0
    # The finite next values are exactly the positions with a prev, so
    # their dense ranks count those positions strictly before them.
    rank_at = np.cumsum(has_prev, dtype=np.int32)
    rank_at -= has_prev
    ranks = rank_at[np.compress(~last_mask, nxt)]
    del nxt, rank_at
    # Rank q is the prev of the q-th position that has one.  Sentinels
    # (final occurrences) outrank every finite next: add those before it.
    d_prev = _per_element_inversions(ranks)
    del ranks
    sentinels = np.cumsum(last_mask, dtype=np.int32)
    sentinels -= last_mask
    d_prev += sentinels[np.compress(has_prev, prev)]
    del sentinels
    depth = np.cumsum(~has_prev, dtype=np.int32)  # S: distinct blocks so far
    depth[has_prev] -= d_prev
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


def kernel_stackdist(
    state: dict, blocks: np.ndarray, kinds: np.ndarray, links: bool = False
) -> dict:
    """Vectorized Mattson stack-distance chunk step.

    Pure function over :meth:`StackDistanceRun.state_dict` snapshots.
    With ``links`` the successor also carries ``"links"``: the chunk's
    int32 ``(depth, prev)``, the depth of every reference (0 for a
    first touch) and the in-chunk index of the previous reference to
    its block (-1 when that lies before the chunk or there is none).
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
    post = {
        "block_size": state["block_size"],
        "count_reads_only": state["count_reads_only"],
        "warmup": state["warmup"],
        "pos": pos0 + n,
        "cold": int(state["cold"]) + cold_new,
        "total": int(state["total"]) + total_new,
        "blocks_by_last_access": by_last_access.tolist(),
        "hist": hist[: top + 1].tolist(),
    }
    if links:
        chunk_depth = np.where(first, 0, depth[f:]).astype(np.int32, copy=False)
        chunk_prev = prev[f:] - f
        np.maximum(chunk_prev, -1, out=chunk_prev)
        post["links"] = (chunk_depth, chunk_prev)
    return post


def _segment_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions ``starts[s] + j`` for ``j < counts[s]``, set after set:
    the first ``counts[s]`` entries of each set's segment of a
    flattened per-set list."""
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]), dtype=np.int64) + np.repeat(
        starts - (ends - counts), counts
    )


def _set_geometry(state: dict) -> Tuple[int, int]:
    ways = int(state["associativity"])
    return int(state["capacity_bytes"]) // int(state["block_size"]) // ways, ways


def _nested(view: dict, base: dict) -> bool:
    """True when ``view`` (at ``base``'s set count, no wider) holds
    exactly the top of ``base``'s per-set LRU stacks: equal
    ``ever_seen`` holding every block ``base`` holds, and each set's
    MRU order the first ``min(count, associativity)`` blocks of
    ``base``'s.  Fresh caches and caches that saw one shared history
    are nested; then one depth pass over ``base``'s residents serves
    both (Mattson inclusion per set), and a block only ``base`` holds
    is a capacity miss for ``view``, never a cold one."""
    if view["ever_seen"] != base["ever_seen"]:
        return False
    ways = int(view["associativity"])
    base_counts = np.asarray(base["set_counts"], dtype=np.int64)
    counts = np.asarray(view["set_counts"], dtype=np.int64)
    if not np.array_equal(counts, np.minimum(base_counts, ways)):
        return False
    base_orders = np.asarray(base["set_orders_mru_to_lru"], dtype=np.int64)
    ever = np.asarray(base["ever_seen"], dtype=np.int64)
    if np.setdiff1d(base_orders, ever).size:
        return False
    starts = np.cumsum(base_counts) - base_counts
    top = base_orders[_segment_positions(starts, counts)]
    orders = np.asarray(view["set_orders_mru_to_lru"], dtype=np.int64)
    return np.array_equal(top, orders)


def _setassoc_passes(states: List[dict]) -> List[Tuple[int, List[int]]]:
    """Group views into depth passes: ``(num_sets, view indices)``, the
    widest view first, fewest sets first (those passes compress the
    fewest runs, so they run while the least output is held).  Views
    share a pass only at one set count and only when nested in the
    pass's widest view; any other view opens a pass of its own, so
    loaded states of any shape stay exact."""
    by_sets: dict = {}
    for index, state in enumerate(states):
        by_sets.setdefault(_set_geometry(state)[0], []).append(index)
    passes = []
    for num_sets, members in sorted(by_sets.items()):
        members.sort(key=lambda i: -_set_geometry(states[i])[1])
        groups: List[List[int]] = []
        for index in members:
            for group in groups:
                if _nested(states[index], states[group[0]]):
                    group.append(index)
                    break
            else:
                groups.append([index])
        passes.extend((num_sets, group) for group in groups)
    return passes


def _setassoc_pass(
    states: List[dict],
    members: List[int],
    num_sets: int,
    blocks: np.ndarray,
    kinds: np.ndarray,
    posts: List[Optional[dict]],
) -> None:
    """One grouped depth pass at ``num_sets`` sets, scoring every view
    in ``members`` (the widest first); fills their ``posts``.

    Reads, misses and first touches are counted in grouped order, never
    scattered back to trace order, and every pass array is freed before
    the per-view states are built, so a sweep holds no more than one
    pass at a time.
    """
    n = int(blocks.shape[0])
    base = states[members[0]]
    widest = _set_geometry(base)[1]
    old_counts = np.asarray(base["set_counts"], dtype=np.int64)
    old_starts = np.cumsum(old_counts) - old_counts
    # Synthetic prefix: the base view's residents of touched sets, per
    # set oldest -> newest (stored orders are MRU -> LRU).
    if num_sets & (num_sets - 1):
        set_of = blocks % num_sets
    else:  # the same sets for the non-negative ids the guard admits
        set_of = blocks & (num_sets - 1)
    touched = np.bincount(set_of, minlength=num_sets) > 0
    pref_counts = np.where(touched, old_counts, 0)
    r = int(pref_counts.sum())
    m = r + n
    k = _pow2ceil(m)
    # Group by set with one value sort of packed (set, position) keys.
    key = np.empty(m, dtype=np.int64)
    np.multiply(set_of, k, out=key[r:])
    del set_of
    if r:
        key[:r] = np.repeat(np.arange(num_sets, dtype=np.int64) * k, pref_counts)
        pos = _segment_positions(old_starts, pref_counts)
        pos = np.repeat(2 * old_starts + pref_counts - 1, pref_counts) - pos
        pref_blocks = np.asarray(base["set_orders_mru_to_lru"], dtype=np.int64)[pos]
        del pos
    key += np.arange(m, dtype=np.int64)
    key.sort()
    key &= k - 1  # now the grouped order (int64 indices gather fastest)
    if r:
        g_blocks = np.concatenate([pref_blocks, blocks])[key]
        g_cls = np.concatenate([np.zeros(r, dtype=np.uint8), kinds])[key]
    else:
        g_blocks = blocks[key]
        g_cls = kinds[key]
    # Reference class in grouped order: 1 read, 2 write, 0 prefix.
    np.not_equal(g_cls, READ, out=g_cls)
    g_cls += 1
    if r:
        g_cls[key < r] = 0
    del key
    # Same-block references always share a set, so the grouped stream
    # gives exact per-set depths; a view of A ways hits iff depth <= A.
    miss_bin = widest + 1
    if widest == 1:
        # Direct-mapped only: a hit is a repeat of the previous
        # reference in the set, so only occurrence linking is needed.
        prev, nxt, last_mask = _link_occurrences(g_blocks)
        del nxt
        depth = np.full(m, miss_bin, dtype=np.int32)
        depth[1:][g_blocks[1:] == g_blocks[:-1]] = 1
    else:
        depth, prev, last_mask = _stack_depths(g_blocks)
        np.minimum(depth, miss_bin, out=depth)
    first = prev < 0
    del prev
    depth[first] = miss_bin
    first &= g_cls != 0
    new_blocks = g_blocks[first]  # first touches of blocks not in the prefix
    del first
    # One histogram of (depth, class) scores every view of the pass.
    depth *= 3
    depth += g_cls
    hist = np.bincount(depth, minlength=3 * (miss_bin + 1)).reshape(-1, 3)
    del depth, g_cls
    reads, writes = (int(c) for c in hist[:, 1:].sum(axis=0))
    hits = np.cumsum(hist[:, 1:], axis=0)  # [A] -> (read, write) hits at depth <= A
    ever_new, n_cold = _merge_sorted_unique(
        np.asarray(base["ever_seen"], dtype=np.int64), new_blocks
    )
    del new_blocks
    ever_seen = ever_new.tolist()
    # Per set, final occurrences in grouped order run LRU -> MRU.
    lr_blocks = g_blocks[np.flatnonzero(last_mask)]
    del g_blocks, last_mask
    lr_sets = lr_blocks % num_sets
    lr_total = np.bincount(lr_sets, minlength=num_sets)
    from_end = np.cumsum(lr_total)[lr_sets] - np.arange(lr_blocks.shape[0])  # 1 = MRU
    for index in members:
        state = states[index]
        ways = _set_geometry(state)[1]
        counts = np.asarray(state["set_counts"], dtype=np.int64)
        orders = np.asarray(state["set_orders_mru_to_lru"], dtype=np.int64)
        new_counts = np.where(touched, np.minimum(lr_total, ways), counts)
        new_starts = np.cumsum(new_counts) - new_counts
        new_orders = np.empty(int(new_counts.sum()), dtype=np.int64)
        # Untouched sets copy their old segments verbatim.
        kept = np.where(touched, 0, counts)
        new_orders[_segment_positions(new_starts, kept)] = orders[
            _segment_positions(np.cumsum(counts) - counts, kept)
        ]
        # Touched sets keep their `ways` most recent blocks, MRU first.
        keep = from_end <= ways
        new_orders[new_starts[lr_sets[keep]] + from_end[keep] - 1] = lr_blocks[keep]
        read_hits, write_hits = (int(h) for h in hits[ways])
        old = state["stats"]
        posts[index] = {
            "capacity_bytes": state["capacity_bytes"],
            "block_size": state["block_size"],
            "associativity": state["associativity"],
            "set_orders_mru_to_lru": new_orders.tolist(),
            "set_counts": new_counts.tolist(),
            "ever_seen": ever_seen,
            "stats": {
                "reads": int(old["reads"]) + reads,
                "writes": int(old["writes"]) + writes,
                "read_misses": int(old["read_misses"]) + reads - read_hits,
                "write_misses": int(old["write_misses"]) + writes - write_hits,
                "cold_misses": int(old["cold_misses"]) + n_cold,
            },
        }


def kernel_setassoc(
    states: List[dict], blocks: np.ndarray, kinds: np.ndarray, budget=None
) -> List[dict]:
    """Vectorized set-associative LRU chunk step for many caches.

    Pure function from a list of :meth:`SetAssociativeCache.state_dict`
    snapshots ("views": capacity, associativity and state may differ,
    the block size may not) plus one columnar chunk to their successor
    snapshots.  One grouped depth pass per distinct set count scores
    every view at that count, by Mattson inclusion per set: a
    reference hits an A-way view iff its per-set LRU depth is at most
    A.  A single cache is the one-view case.  The budget is polled
    once per pass.
    """
    posts: List[Optional[dict]] = [None] * len(states)
    for num_sets, members in _setassoc_passes(states):
        if budget is not None:
            budget.check("setassoc kernel pass")
        _setassoc_pass(states, members, num_sets, blocks, kinds, posts)
    return posts


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
    "setassoc": kernel_setassoc,
    "stackdist": kernel_stackdist,
    "multiproc": kernel_multiproc,
}

#: Kernels that poll the budget between their own passes or windows.
_BUDGETED = ("setassoc", "multiproc")


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------

#: The depth engine indexes the chunk plus its synthetic prefix in
#: int32; a prefixed chunk this long is an input error (the coherence
#: kernel leaves such a chunk to its loop).
MAX_REFS = 1 << 28


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


_STAT_KEYS = ("reads", "writes", "read_misses", "write_misses", "cold_misses")


def _counter_violation(
    old: dict, new: dict, keys, n: int, reads: int
) -> Optional[str]:
    """Scalar checks on one counter block over ``n`` references, of
    which ``reads`` are reads: reads and writes match, every counter is
    monotone, misses <= refs, cold <= misses.  Written so that a NaN
    fails every comparison."""
    delta = {key: new[key] - old[key] for key in keys}
    for key, value in delta.items():
        if not value >= 0:
            return f"{key} decreased or is not a number"
    if not (delta["reads"] == reads and delta["writes"] == n - reads):
        return "reads/writes do not match the chunk"
    misses = delta["read_misses"] + delta["write_misses"]
    if not misses <= n:
        return "misses exceed references"
    if not delta["cold_misses"] <= misses:
        return "cold misses exceed misses"
    if "coherence_misses" in delta and not (
        delta["cold_misses"] + delta["coherence_misses"] + delta["capacity_misses"]
        == misses
    ):
        return "cold + coherence + capacity != misses"
    return None


def _reads(kinds: np.ndarray) -> int:
    return int(np.count_nonzero(kinds == READ))


def _invariant_violation(kernel: str, pre: dict, post: dict, kinds) -> Optional[str]:
    """O(1) checks on one chunk's scalar deltas (O(P) for multiproc);
    ``None`` when every invariant holds."""
    if kernel == "stackdist":
        n = int(kinds.shape[0])
        d_pos = post["pos"] - pre["pos"]
        d_total = post["total"] - pre["total"]
        d_cold = post["cold"] - pre["cold"]
        if not d_pos == n:
            return "pos did not advance by the chunk size"
        if not 0 <= d_total <= n:
            return "counted references outside [0, chunk size]"
        if not 0 <= d_cold <= d_total:
            return "cold misses outside [0, counted references]"
        return None
    if kernel == "multiproc":
        if len(post["stats"]) != len(kinds):
            return "stats do not cover every processor"
        for pid, (old, new, col) in enumerate(zip(pre["stats"], post["stats"], kinds)):
            reason = _counter_violation(
                old, new, _MP_STAT_KEYS, int(col.shape[0]), _reads(col)
            )
            if reason is not None:
                return f"p{pid} {reason}"
        return None
    return _counter_violation(
        pre["stats"], post["stats"], _STAT_KEYS, int(kinds.shape[0]), _reads(kinds)
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


def _prefix_bound(kernel: str, sims: list) -> int:
    """At most this many residents join a chunk as its synthetic prefix
    (for a sweep, the widest pass's)."""
    if kernel == "stackdist":
        return len(sims[0]._blocks)
    return max(sim.capacity_bytes // sim.block_size for sim in sims)


def _check_domain(kernel: str, blocks: np.ndarray, n: int, prefix_bound: int) -> None:
    """Raise ``ValueError`` for a uniprocessor chunk the depth engine
    cannot take: it packs ``(id, position)`` into int64 keys, so block
    ids must be non-negative and leave room for the position bits of
    the prefixed chunk, which :data:`MAX_REFS` bounds."""
    m = n + prefix_bound
    if m >= MAX_REFS:
        raise ValueError(
            f"{kernel} chunk of {n} references plus up to {prefix_bound} "
            f"resident blocks reaches MAX_REFS ({MAX_REFS}); feed it in "
            "smaller chunks"
        )
    lowest = int(blocks.min())
    if lowest < 0:
        raise ValueError(
            f"{kernel} chunk has block id {lowest}; block ids must be >= 0"
        )
    limit = min(_MAX_BLOCK_ID, (1 << 62) // _pow2ceil(m + 1))
    highest = int(blocks.max())
    if highest >= limit:
        raise ValueError(
            f"{kernel} chunk has block id {highest}; the packed keys of a "
            f"{m}-reference prefixed chunk take block ids below {limit} "
            f"(_MAX_BLOCK_ID = 2**44)"
        )


def guard_run(kernel: str, sim, trace, budget=None, **options) -> bool:
    """Advance ``sim`` over ``trace`` with its vectorized kernel.

    The dispatch point every simulator calls; ``True`` means the kernel
    ran and the simulator state was updated.  A ``"stackdist"`` or
    ``"setassoc"`` chunk always returns ``True`` (an empty one is a
    no-op) or, outside the kernel's domain, raises ``ValueError`` (see
    :func:`_check_domain`).  A ``"multiproc"`` chunk returns ``False``
    when the caller must run its per-reference loop: finite caches, too
    many processors, an empty or over-long chunk, or block ids too
    sparse for the kernel's dense table.  For ``"setassoc"``,
    ``sim`` may be a list of caches of one block size, advanced together
    over ``trace`` (a sweep).  ``options`` go to the kernel as keyword
    arguments (``links=True`` for ``"stackdist"``).  A kernel result
    that breaks a scalar invariant raises
    :class:`~repro.runtime.errors.KernelDivergenceError`.  Whenever it
    does not return ``True``, every simulator is untouched.
    """
    if kernel == "multiproc":
        # Infinite caches only.
        if (
            sim.capacity_blocks is not None
            or sim.num_processors > MULTIPROC_MAX_PROCESSORS
        ):
            return False
        n = sum(len(t) for t in trace)
        if n == 0 or n >= MAX_REFS:
            return False
        # The kernel maps blocks through a dense table over their span;
        # sparser block ids stay with the per-reference loop.
        if _multiproc_block_span(sim, trace) > max(1 << 16, 8 * n):
            return False
        blocks = [t.addrs for t in trace]  # divided per window
        kinds = [t.kinds for t in trace]
    else:
        sims = list(sim) if isinstance(sim, (list, tuple)) else [sim]
        if not sims or len({s.block_size for s in sims}) != 1:
            raise ValueError(f"{kernel} needs simulators of one block size")
        n = len(trace)
        if n == 0:
            return True
        blocks = trace.block_ids(sims[0].block_size)
        kinds = trace.kinds
        _check_domain(kernel, blocks, n, _prefix_bound(kernel, sims))
    from repro.obs import metrics as obs_metrics
    from repro.obs.metrics import hot_loop_sampler
    from repro.runtime.budget import active_budget
    from repro.runtime.errors import KernelDivergenceError

    if budget is None:
        budget = active_budget()
    if budget is not None:
        budget.check(f"{kernel} kernel chunk")
    sampler = hot_loop_sampler(f"mem.{kernel}")
    extra = {"budget": budget} if kernel in _BUDGETED else {}
    extra.update(options)
    if kernel == "setassoc":
        # The kernel takes and returns one snapshot per cache.
        pre = [cache.state_dict() for cache in sims]
        post = KERNELS[kernel](pre, blocks, kinds, **extra)
        if len(post) != len(pre):
            raise KernelDivergenceError(
                f"setassoc kernel returned {len(post)} states for {len(pre)} caches"
            )
        pairs = list(zip(sims, pre, post))
    else:
        pre = sim.state_dict()
        pairs = [(sim, pre, KERNELS[kernel](pre, blocks, kinds, **extra))]
    for _, old, new in pairs:
        reason = _invariant_violation(kernel, old, new, kinds)
        if reason is not None:
            raise KernelDivergenceError(
                f"{kernel} kernel broke an invariant on a {n}-reference chunk: {reason}"
            )
    for target, _, new in pairs:
        target.load_state_dict(new)
    if sampler is not None:
        sampler.finish(
            refs=n * len(pairs),
            misses=sum(_miss_delta(kernel, old, new) for _, old, new in pairs),
        )
    obs_metrics.inc(f"mem.kernel.{kernel}.chunks")
    return True
