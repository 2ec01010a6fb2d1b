"""Shared check for the columnar-generator parity tests: a generator's
trace against its per-reference oracle."""

from __future__ import annotations

import numpy as np


def assert_same_trace(got, want) -> None:
    """Byte-identical in-memory traces: same dtypes, addresses, kinds."""
    assert got.addrs.dtype == want.addrs.dtype == np.int64
    assert got.kinds.dtype == want.kinds.dtype == np.uint8
    assert np.array_equal(got.addrs, want.addrs)
    assert np.array_equal(got.kinds, want.kinds)
