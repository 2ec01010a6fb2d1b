"""Tests for trace persistence."""

import numpy as np
import pytest

from repro.mem.tracefile import FORMAT_VERSION, load_metadata, load_trace, save_trace
from repro.mem.trace import Trace, TraceBuilder
from repro.runtime.errors import TraceFileWriteError
from tests.conftest import random_trace


class TestRoundtrip:
    def test_addresses_and_kinds_preserved(self, tmp_path):
        trace = random_trace(500, 100, seed=1)
        path = tmp_path / "t.npz"
        save_trace(path, trace)
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.addrs, trace.addrs)
        np.testing.assert_array_equal(loaded.kinds, trace.kinds)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "e.npz"
        save_trace(path, Trace.from_addresses([]))
        assert len(load_trace(path)) == 0

    def test_metadata_roundtrip(self, tmp_path):
        trace = random_trace(10, 10)
        path = tmp_path / "m.npz"
        save_trace(path, trace, metadata={"app": "LU", "n": 96, "B": 8})
        assert load_metadata(path) == {"app": "LU", "n": 96, "B": 8}

    def test_default_metadata_empty(self, tmp_path):
        path = tmp_path / "d.npz"
        save_trace(path, random_trace(10, 10))
        assert load_metadata(path) == {}

    def test_version_checked(self, tmp_path):
        trace = random_trace(10, 10)
        path = tmp_path / "v.npz"
        np.savez_compressed(
            path,
            addrs=trace.addrs,
            kinds=trace.kinds,
            version=np.int64(FORMAT_VERSION + 1),
            metadata=np.frombuffer(b"{}", dtype=np.uint8),
        )
        with pytest.raises(ValueError):
            load_trace(path)
        with pytest.raises(ValueError):
            load_metadata(path)

    def test_profiling_after_reload(self, tmp_path):
        """A reloaded trace profiles identically."""
        from repro.mem.stack_distance import profile_trace

        builder = TraceBuilder()
        for _ in range(3):
            builder.read_range(0, 32)
        trace = builder.build()
        path = tmp_path / "p.npz"
        save_trace(path, trace)
        original = profile_trace(trace)
        reloaded = profile_trace(load_trace(path))
        np.testing.assert_array_equal(
            original.depth_histogram, reloaded.depth_histogram
        )
        assert original.cold_misses == reloaded.cold_misses


class TestIntegrity:
    """Format v2: checksums detect corruption; saves are atomic."""

    def _saved(self, tmp_path, with_metadata=False):
        trace = random_trace(2000, 300, seed=9)
        path = tmp_path / "t.npz"
        metadata = {"app": "LU", "n": 96} if with_metadata else None
        save_trace(path, trace, metadata=metadata)
        return path, trace

    def test_bit_flip_raises_corrupt_error(self, tmp_path):
        from repro.mem.tracefile import TraceFileCorruptError

        path, _ = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFileCorruptError):
            load_trace(path)

    def test_truncated_archive_raises_corrupt_error(self, tmp_path):
        from repro.mem.tracefile import TraceFileCorruptError

        path, _ = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFileCorruptError):
            load_trace(path)

    def test_garbage_file_raises_corrupt_error(self, tmp_path):
        from repro.mem.tracefile import TraceFileCorruptError

        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(TraceFileCorruptError):
            load_trace(path)
        with pytest.raises(TraceFileCorruptError):
            load_metadata(path)

    def test_missing_checksum_field_raises(self, tmp_path):
        from repro.mem.tracefile import TraceFileCorruptError

        trace = random_trace(10, 10)
        path = tmp_path / "nochecksum.npz"
        np.savez_compressed(
            path,
            addrs=trace.addrs,
            kinds=trace.kinds,
            version=np.int64(FORMAT_VERSION),
            metadata=np.frombuffer(b"{}", dtype=np.uint8),
        )
        with pytest.raises(TraceFileCorruptError):
            load_trace(path)

    def test_wrong_checksum_raises(self, tmp_path):
        from repro.mem.tracefile import TraceFileCorruptError

        trace = random_trace(10, 10)
        path = tmp_path / "badsum.npz"
        np.savez_compressed(
            path,
            addrs=trace.addrs,
            kinds=trace.kinds,
            version=np.int64(FORMAT_VERSION),
            checksum=np.int64(12345),
            meta_checksum=np.int64(0),
            metadata=np.frombuffer(b"", dtype=np.uint8),
        )
        with pytest.raises(TraceFileCorruptError, match="checksum"):
            load_trace(path)

    def test_metadata_checksum_verified(self, tmp_path):
        import zlib

        from repro.mem.tracefile import TraceFileCorruptError

        trace = random_trace(10, 10)
        path = tmp_path / "badmeta.npz"
        payload = b'{"app": "LU"}'
        np.savez_compressed(
            path,
            addrs=trace.addrs,
            kinds=trace.kinds,
            version=np.int64(FORMAT_VERSION),
            checksum=np.int64(0),
            meta_checksum=np.int64(zlib.crc32(payload) ^ 0xFF),
            metadata=np.frombuffer(payload, dtype=np.uint8),
        )
        with pytest.raises(TraceFileCorruptError, match="metadata"):
            load_metadata(path)

    def test_corrupt_file_helper_integration(self, tmp_path):
        """The fault harness's corrupt_file damages real archives."""
        from repro.mem.tracefile import TraceFileCorruptError
        from tests.harness.faulty import corrupt_file

        path, _ = self._saved(tmp_path)
        corrupt_file(path, offset=path.stat().st_size // 2)
        with pytest.raises(TraceFileCorruptError):
            load_trace(path)

    def test_interrupted_save_preserves_previous_file(self, tmp_path, monkeypatch):
        path, original = self._saved(tmp_path)

        def crashing_savez(handle, **arrays):
            handle.write(b"partial garbage")
            raise OSError("simulated crash mid-save")

        monkeypatch.setattr(np, "savez_compressed", crashing_savez)
        with pytest.raises(TraceFileWriteError):
            save_trace(path, random_trace(50, 10, seed=3))
        monkeypatch.undo()
        reloaded = load_trace(path)  # previous archive still intact
        np.testing.assert_array_equal(reloaded.addrs, original.addrs)

    def test_interrupted_save_leaves_no_temp_files(self, tmp_path, monkeypatch):
        import os

        def crashing_savez(handle, **arrays):
            raise OSError("simulated crash mid-save")

        monkeypatch.setattr(np, "savez_compressed", crashing_savez)
        with pytest.raises(TraceFileWriteError):
            save_trace(tmp_path / "t.npz", random_trace(50, 10))
        monkeypatch.undo()
        assert os.listdir(tmp_path) == []

    def test_missing_parent_directory_raises_typed_error(self, tmp_path):
        """FileNotFoundError is an OSError like any other: callers get
        the typed write error, not a leaked builtin."""
        with pytest.raises(TraceFileWriteError):
            save_trace(
                tmp_path / "no" / "such" / "dir" / "t.npz",
                random_trace(10, 10),
            )

    def test_metadata_roundtrip_with_checksum(self, tmp_path):
        path, _ = self._saved(tmp_path, with_metadata=True)
        assert load_metadata(path) == {"app": "LU", "n": 96}

    def test_enospc_during_save_is_typed_and_clean(self, tmp_path):
        """Regression: an injected disk-full during save_trace must
        surface as TraceFileWriteError, keep the previous archive, and
        unlink the staging temp file."""
        import os

        from tests.harness.iofault import IOFault, IOFaultInjector, install

        path, original = self._saved(tmp_path)
        injector = IOFaultInjector(
            [IOFault("tracefile", "write", "enospc", repeat=True)]
        )
        with install(injector):
            with pytest.raises(TraceFileWriteError) as caught:
                save_trace(path, random_trace(50, 10, seed=4))
        assert isinstance(caught.value.__cause__, OSError)
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        reloaded = load_trace(path)
        np.testing.assert_array_equal(reloaded.addrs, original.addrs)

    def test_fsync_fault_during_save_is_typed(self, tmp_path):
        from tests.harness.iofault import IOFault, IOFaultInjector, install

        injector = IOFaultInjector(
            [IOFault("tracefile", "fsync", "fsync-fail")]
        )
        with install(injector):
            with pytest.raises(TraceFileWriteError):
                save_trace(tmp_path / "t.npz", random_trace(50, 10))
        assert not (tmp_path / "t.npz").exists()
