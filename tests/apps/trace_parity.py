"""Shared checks for the columnar-generator parity tests: a generator's
trace against its per-reference oracle, in memory and streamed."""

from __future__ import annotations

import contextlib

import numpy as np

from repro.mem.shards import clear_streaming, configure_streaming, read_manifest

#: Manifest keys that identify a streamed trace's content and sharding.
MANIFEST_KEYS = ("refs", "reads", "writes", "content_sha256", "shards")

#: An odd spill threshold, so shard boundaries fall mid-phase.
SHARD_REFS = 2999


def assert_same_trace(got, want) -> None:
    """Byte-identical in-memory traces: same dtypes, addresses, kinds."""
    assert got.addrs.dtype == want.addrs.dtype == np.int64
    assert got.kinds.dtype == want.kinds.dtype == np.uint8
    assert np.array_equal(got.addrs, want.addrs)
    assert np.array_equal(got.kinds, want.kinds)


def assert_same_manifest(got, want) -> None:
    """Streamed traces with the same content and the same shards."""
    assert len(got) == len(want)
    ours = read_manifest(got.directory)
    theirs = read_manifest(want.directory)
    for key in MANIFEST_KEYS:
        assert ours[key] == theirs[key], key


@contextlib.contextmanager
def streaming(directory):
    """Stream every trace built inside the block to ``directory``."""
    configure_streaming(directory, shard_refs=SHARD_REFS, export_env=False)
    try:
        yield
    finally:
        clear_streaming(clear_env=False)
