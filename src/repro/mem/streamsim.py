"""Chunk-wise simulation over sharded traces, with checkpoint/resume.

The streamed drivers here replay a :class:`~repro.mem.shards.StreamingTrace`
through the ordinary in-memory simulators one shard at a time — each
chunk is wrapped as a plain :class:`~repro.mem.trace.Trace` and fed to
the exact hot loop the in-memory path runs, so streamed results are
identical *by construction*, not by reimplementation (the
``tests/harness/differential.py`` oracle still checks this exhaustively).

At every shard boundary the simulator's full state is snapshotted to a
CRC-framed checkpoint file (see :func:`repro.mem.shards.save_sim_checkpoint`)
keyed on the SHA-256 of ``(trace content, simulator kind, parameters)``:

* a SIGKILL at any instant leaves either the previous snapshot or the
  new one — resume replays from the last sealed boundary and finishes
  byte-identical with an uninterrupted run;
* the key is *content*-addressed, so a retried attempt that
  deterministically regenerates the same trace (into a fresh ``.trd``
  directory) still resumes its simulation where the killed attempt
  stopped;
* a damaged or mismatched snapshot degrades to "no snapshot" and the
  simulation restarts from shard zero — always safe.

Each checkpoint file has a sibling ``<key>.ckpt.wal`` journal (the WAL1
framing of :mod:`repro.runtime.journal`) recording one ``sim-checkpoint``
record per boundary, giving crash forensics the same treatment as
PR 4's attempt records.

Progress is exported as gauges (``mem.stream.shards_done`` /
``mem.stream.shards_total``) so ``status`` can report mid-simulation
position; reference throughput still comes from the simulators' own
hot-loop samplers — no counters are double-published here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

from repro.mem.shards import (
    StreamingTrace,
    active_stream_config,
    load_sim_checkpoint,
    save_sim_checkpoint,
)
from repro.mem.trace import Trace
from repro.obs import metrics as obs_metrics

#: Sentinel: "derive the checkpoint path from the ambient config".
_AMBIENT = object()


def _canonical_params(params: Dict[str, object]) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def checkpoint_key(trace: StreamingTrace, kind: str, params: Dict[str, object]) -> str:
    """Content-addressed identity of one (trace, simulator) pairing."""
    digest = hashlib.sha256(
        f"{trace.content_sha256}|{kind}|{_canonical_params(params)}".encode("utf-8")
    )
    return digest.hexdigest()[:32]


def default_checkpoint_path(
    trace: StreamingTrace, kind: str, params: Dict[str, object]
) -> Optional[Path]:
    """Where the ambient configuration keeps this simulation's snapshot.

    ``None`` (checkpointing disabled) when no stream configuration is
    installed — e.g. ad-hoc streamed runs in tests.
    """
    config = active_stream_config()
    if config is None:
        return None
    return config.checkpoint_directory / f"{checkpoint_key(trace, kind, params)}.ckpt"


def _load_resume_point(
    path: Optional[Path],
    trace: StreamingTrace,
    kind: str,
    params: Dict[str, object],
) -> Optional[Dict[str, object]]:
    """The snapshot to resume from, or ``None`` to start at shard zero.

    A snapshot only counts if it matches the trace content, simulator
    kind and parameters, *and* the shard geometry (boundaries move when
    ``shard_refs`` changes, so a snapshot taken under a different
    geometry cannot be replayed from).
    """
    if path is None:
        return None
    payload = load_sim_checkpoint(path)
    if payload is None:
        return None
    if (
        payload.get("trace_sha256") != trace.content_sha256
        or payload.get("kind") != kind
        or payload.get("params") != params
        or payload.get("shard_refs") != trace.shard_refs
        or not isinstance(payload.get("next_shard"), int)
        or not isinstance(payload.get("state"), dict)
    ):
        return None
    next_shard = payload["next_shard"]
    if not 0 < next_shard <= trace.num_shards:
        return None
    return payload


def run_chunked(
    sim,
    trace: StreamingTrace,
    kind: str,
    params: Dict[str, object],
    budget=None,
    checkpoint_path=_AMBIENT,
) -> None:
    """Feed ``trace`` through ``sim`` shard-by-shard with checkpoints.

    ``sim`` is any object with ``state_dict()`` / ``load_state_dict()``
    and either ``feed(trace, budget)`` (incremental profilers) or
    ``run(trace, budget)`` (the caches).  ``checkpoint_path`` defaults
    to the ambient stream configuration's content-addressed location;
    pass ``None`` to disable checkpointing explicitly.
    """
    path = (
        default_checkpoint_path(trace, kind, params)
        if checkpoint_path is _AMBIENT
        else (Path(checkpoint_path) if checkpoint_path else None)
    )
    start_shard = 0
    resume = _load_resume_point(path, trace, kind, params)
    if resume is not None:
        sim.load_state_dict(resume["state"])
        start_shard = resume["next_shard"]
        obs_metrics.inc("mem.stream.resumes")
    step = sim.feed if hasattr(sim, "feed") else sim.run
    journal = None
    obs_metrics.set_gauge("mem.stream.shards_total", trace.num_shards)
    obs_metrics.set_gauge("mem.stream.shards_done", start_shard)
    try:
        for index, addrs, kinds in trace.iter_chunks(start_shard):
            step(Trace(addrs, kinds), budget)
            done = index + 1
            obs_metrics.set_gauge("mem.stream.shards_done", done)
            if path is not None:
                save_sim_checkpoint(
                    path,
                    {
                        "trace_sha256": trace.content_sha256,
                        "kind": kind,
                        "params": params,
                        "shard_refs": trace.shard_refs,
                        "next_shard": done,
                        "state": sim.state_dict(),
                    },
                )
                if journal is None:
                    from repro.runtime.journal import Journal

                    journal = Journal(path.with_name(path.name + ".wal"))
                journal.append(
                    "sim-checkpoint",
                    kind=kind,
                    trace_sha256=trace.content_sha256,
                    shard=done,
                    shards_total=trace.num_shards,
                )
    finally:
        if journal is not None:
            journal.close()


def run_cache_streamed(cache, trace: StreamingTrace, budget=None, checkpoint_path=_AMBIENT):
    """Streamed drive of a :class:`~repro.mem.cache.FullyAssociativeCache`."""
    params = {
        "capacity_bytes": cache.capacity_bytes,
        "block_size": cache.block_size,
    }
    run_chunked(
        cache, trace, "fullassoc", params, budget=budget, checkpoint_path=checkpoint_path
    )
    return cache.stats


def run_setassoc_streamed(cache, trace: StreamingTrace, budget=None, checkpoint_path=_AMBIENT):
    """Streamed drive of a :class:`~repro.mem.setassoc.SetAssociativeCache`."""
    params = {
        "capacity_bytes": cache.capacity_bytes,
        "block_size": cache.block_size,
        "associativity": cache.associativity,
    }
    run_chunked(
        cache, trace, "setassoc", params, budget=budget, checkpoint_path=checkpoint_path
    )
    return cache.stats


def run_hierarchy_streamed(
    hierarchy, trace: StreamingTrace, budget=None, checkpoint_path=_AMBIENT
):
    """Streamed drive of a :class:`~repro.mem.hierarchy.CacheHierarchy`."""
    params = {
        "capacities": [level.capacity_bytes for level in hierarchy.levels],
        "block_size": hierarchy.block_size,
    }
    run_chunked(
        hierarchy, trace, "hierarchy", params, budget=budget, checkpoint_path=checkpoint_path
    )
    return hierarchy.stats


def profile_streamed(profiler, trace: StreamingTrace, budget=None, checkpoint_path=_AMBIENT):
    """Streamed stack-distance profile (exact, bounded memory).

    ``profiler`` is a configured
    :class:`~repro.mem.stack_distance.StackDistanceProfiler`; the heavy
    lifting happens in the incremental
    :class:`~repro.mem.stack_distance.StackDistanceRun`, whose Fenwick
    tree is compacted at every snapshot so both the running state and
    the serialized checkpoints stay proportional to the footprint, not
    the trace length.
    """
    from repro.mem.stack_distance import StackDistanceRun

    run = StackDistanceRun(
        block_size=profiler.block_size,
        count_reads_only=profiler.count_reads_only,
        warmup=profiler.warmup,
    )
    params = {
        "block_size": profiler.block_size,
        "count_reads_only": profiler.count_reads_only,
        "warmup": profiler.warmup,
    }
    run_chunked(
        run, trace, "stackdist", params, budget=budget, checkpoint_path=checkpoint_path
    )
    return run.result()
