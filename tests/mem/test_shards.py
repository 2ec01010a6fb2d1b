"""Tests for the sharded out-of-core trace substrate (format v3).

Covers the shard round-trip, manifest integrity, the five shard-damage
kinds mapped to their exact validation codes, ambient stream
configuration, the simulator-checkpoint envelope, and the typed
write-error path under injected faults.
"""

import json
import os
import zlib

import numpy as np
import pytest

from repro.mem.shards import (
    DEFAULT_SHARD_REFS,
    MANIFEST_FILENAME,
    SHARD_FORMAT_VERSION,
    SHARD_REFS_ENV,
    STREAM_DIR_ENV,
    StreamConfig,
    StreamingTrace,
    StreamingTraceBuilder,
    TraceShardCorruptError,
    active_stream_config,
    clear_streaming,
    configure_streaming,
    load_sim_checkpoint,
    read_manifest,
    save_sim_checkpoint,
    shard_name,
    trace_builder,
)
from repro.mem.trace import Trace, TraceBuilder
from repro.runtime.errors import TraceFileWriteError
from tests.conftest import random_trace


def build_sharded(tmp_path, trace, shard_refs, name="t.trd"):
    builder = StreamingTraceBuilder(tmp_path / name, shard_refs=shard_refs)
    builder.extend_arrays(trace.addrs, trace.kinds)
    return builder.build()


class TestRoundtrip:
    def test_columns_preserved_across_shards(self, tmp_path):
        trace = random_trace(5000, 700, seed=2)
        streamed = build_sharded(tmp_path, trace, shard_refs=512)
        assert streamed.num_shards == 10
        assert len(streamed) == len(trace)
        np.testing.assert_array_equal(streamed.load().addrs, trace.addrs)
        np.testing.assert_array_equal(streamed.load().kinds, trace.kinds)

    def test_iter_chunks_covers_stream_in_order(self, tmp_path):
        trace = random_trace(1000, 100, seed=3)
        streamed = build_sharded(tmp_path, trace, shard_refs=256)
        pieces_a, pieces_k, indexes = [], [], []
        for index, addrs, kinds in streamed.iter_chunks():
            indexes.append(index)
            pieces_a.append(addrs)
            pieces_k.append(kinds)
        assert indexes == list(range(streamed.num_shards))
        np.testing.assert_array_equal(np.concatenate(pieces_a), trace.addrs)
        np.testing.assert_array_equal(np.concatenate(pieces_k), trace.kinds)

    def test_iter_chunks_start_shard(self, tmp_path):
        trace = random_trace(1000, 100, seed=4)
        streamed = build_sharded(tmp_path, trace, shard_refs=256)
        tail = list(streamed.iter_chunks(start_shard=2))
        assert [index for index, _, _ in tail] == [2, 3]
        np.testing.assert_array_equal(
            np.concatenate([a for _, a, _ in tail]), trace.addrs[512:]
        )

    def test_read_write_counts_from_manifest(self, tmp_path):
        trace = random_trace(800, 64, seed=5)
        streamed = build_sharded(tmp_path, trace, shard_refs=100)
        assert streamed.read_count == trace.read_count
        assert streamed.write_count == trace.write_count

    def test_footprint_matches_in_memory(self, tmp_path):
        trace = random_trace(2000, 321, seed=6)
        streamed = build_sharded(tmp_path, trace, shard_refs=333)
        assert streamed.footprint(8) == trace.footprint(8)
        assert streamed.footprint_bytes(8) == trace.footprint_bytes(8)

    def test_lazy_iteration_yields_accesses(self, tmp_path):
        builder = StreamingTraceBuilder(tmp_path / "rw.trd", shard_refs=4)
        builder.read(0)
        builder.write(8)
        builder.read_range(16, 2)
        streamed = builder.build()
        accesses = list(streamed)
        assert [a.addr for a in accesses] == [0, 8, 16, 24]
        assert [a.is_write for a in accesses] == [False, True, False, False]

    def test_builder_mirrors_tracebuilder(self, tmp_path):
        mem = TraceBuilder()
        out = StreamingTraceBuilder(tmp_path / "m.trd", shard_refs=3)
        for tb in (mem, out):
            tb.read(0)
            tb.write(8)
            tb.read_range(64, 24)
            tb.write_range(128, 16)
            from repro.mem.trace import READ, WRITE, Access

            tb.extend([Access(256, READ), Access(264, WRITE)])
        reference = mem.build()
        streamed = out.build()
        np.testing.assert_array_equal(streamed.load().addrs, reference.addrs)
        np.testing.assert_array_equal(streamed.load().kinds, reference.kinds)

    def test_empty_trace(self, tmp_path):
        streamed = StreamingTraceBuilder(tmp_path / "e.trd").build()
        assert len(streamed) == 0 and streamed.num_shards == 0
        assert list(streamed.iter_chunks()) == []

    def test_build_twice_rejected(self, tmp_path):
        builder = StreamingTraceBuilder(tmp_path / "d.trd")
        builder.read(0)
        builder.build()
        with pytest.raises(RuntimeError):
            builder.build()

    def test_metadata_roundtrip(self, tmp_path):
        builder = StreamingTraceBuilder(
            tmp_path / "md.trd", shard_refs=2, metadata={"app": "LU", "n": 64}
        )
        builder.read_range(0, 10)
        streamed = builder.build()
        assert streamed.metadata == {"app": "LU", "n": 64}
        assert StreamingTrace(streamed.directory).metadata == {
            "app": "LU",
            "n": 64,
        }

    def test_no_shard_exceeds_spill_threshold(self, tmp_path):
        trace = random_trace(1000, 50, seed=8)
        streamed = build_sharded(tmp_path, trace, shard_refs=128)
        manifest = read_manifest(streamed.directory)
        assert all(e["refs"] <= 128 for e in manifest["shards"])

    def test_content_sha_is_sharding_independent(self, tmp_path):
        trace = random_trace(900, 80, seed=9)
        a = build_sharded(tmp_path, trace, shard_refs=100, name="a.trd")
        b = build_sharded(tmp_path, trace, shard_refs=333, name="b.trd")
        assert a.num_shards != b.num_shards
        assert a.content_sha256 == b.content_sha256


class TestExtendArraysBuffering:
    """Bulk columns are buffered as numpy arrays and sealed as exact
    ``shard_refs`` slices: the manifest matches the per-reference path
    however the stream is batched."""

    SHARD_REFS = 100

    @staticmethod
    def _append_each(builder, addrs, kinds):
        for addr, kind in zip(addrs.tolist(), kinds.tolist()):
            (builder.write if kind else builder.read)(addr)

    def _builder(self, tmp_path, name):
        return StreamingTraceBuilder(tmp_path / name, shard_refs=self.SHARD_REFS)

    def _per_reference(self, tmp_path, trace):
        builder = self._builder(tmp_path, "ref.trd")
        self._append_each(builder, trace.addrs, trace.kinds)
        return read_manifest(builder.build().directory)

    @staticmethod
    def _same(got, want):
        for key in ("refs", "reads", "writes", "content_sha256", "shards"):
            assert got[key] == want[key], key

    @pytest.mark.parametrize(
        "batches",
        [
            [1050],  # one batch spanning ten shards and a tail
            [99, 2, 99, 850],  # straddles the first and second boundaries
            [100, 100, 850],  # ends exactly on boundaries
            [37] * 28 + [14],  # many small batches
            [250, 0, 800],  # an empty batch in between
        ],
        ids=["one", "straddle", "exact", "small", "empty"],
    )
    def test_batches_match_per_reference_path(self, tmp_path, batches):
        trace = random_trace(1050, 300, seed=13)
        builder = self._builder(tmp_path, "b.trd")
        start = 0
        for size in batches:
            stop = start + size
            builder.extend_arrays(trace.addrs[start:stop], trace.kinds[start:stop])
            assert len(builder) == stop
            start = stop
        streamed = builder.build()
        assert [e["refs"] for e in streamed.manifest["shards"]] == [100] * 10 + [50]
        self._same(
            read_manifest(streamed.directory), self._per_reference(tmp_path, trace)
        )

    def test_mixed_single_references_and_columns(self, tmp_path):
        trace = random_trace(1050, 300, seed=14)
        builder = self._builder(tmp_path, "m.trd")
        addrs, kinds = trace.addrs, trace.kinds
        for start, stop in ((0, 30), (30, 160), (160, 299), (299, 1050)):
            if (stop - start) % 2:  # odd runs one reference at a time
                self._append_each(builder, addrs[start:stop], kinds[start:stop])
            else:
                builder.extend_arrays(addrs[start:stop], kinds[start:stop])
        streamed = builder.build()
        np.testing.assert_array_equal(streamed.load().addrs, addrs)
        np.testing.assert_array_equal(streamed.load().kinds, kinds)
        self._same(
            read_manifest(streamed.directory), self._per_reference(tmp_path, trace)
        )

    def test_rejects_ragged_columns(self, tmp_path):
        builder = StreamingTraceBuilder(tmp_path / "r.trd", shard_refs=4)
        with pytest.raises(ValueError):
            builder.extend_arrays(np.array([0, 8]), np.array([0]))


class TestAmbientConfig:
    def teardown_method(self):
        clear_streaming()

    def test_trace_builder_defaults_to_in_memory(self):
        clear_streaming()
        assert active_stream_config() is None
        assert isinstance(trace_builder(), TraceBuilder)

    def test_configure_dispatches_to_streaming(self, tmp_path):
        configure_streaming(tmp_path / "stream", shard_refs=7)
        config = active_stream_config()
        assert config == StreamConfig(tmp_path / "stream", 7)
        builder = trace_builder()
        assert isinstance(builder, StreamingTraceBuilder)
        builder.read_range(0, 20)
        streamed = builder.build()
        assert streamed.directory.parent == tmp_path / "stream"
        assert streamed.num_shards == 3

    def test_env_vars_reach_child_config(self, tmp_path):
        configure_streaming(tmp_path / "s", shard_refs=5, export_env=True)
        assert os.environ[STREAM_DIR_ENV] == str(tmp_path / "s")
        assert os.environ[SHARD_REFS_ENV] == "5"
        clear_streaming(clear_env=False)
        # Env alone (what a worker inherits) still yields the config.
        config = active_stream_config()
        assert config is not None and config.shard_refs == 5
        clear_streaming()
        assert STREAM_DIR_ENV not in os.environ
        assert active_stream_config() is None

    def test_default_shard_refs_applied(self, tmp_path):
        configure_streaming(tmp_path / "s2")
        assert active_stream_config().shard_refs == DEFAULT_SHARD_REFS


class TestShardDamage:
    """Each damage kind maps to exactly one validation code."""

    def _streamed(self, tmp_path):
        trace = random_trace(600, 90, seed=10)
        return build_sharded(tmp_path, trace, shard_refs=128)

    def test_truncated_shard_is_corrupt(self, tmp_path):
        from repro.validate.artifacts import validate_trace_dir

        streamed = self._streamed(tmp_path)
        shard = streamed.directory / shard_name(1)
        shard.write_bytes(shard.read_bytes()[:-20])
        report = validate_trace_dir(streamed.directory)
        assert [f.code for f in report.errors] == ["trace-shard-corrupt"]
        with pytest.raises(TraceShardCorruptError):
            list(streamed.iter_chunks())

    def test_bit_flip_in_payload_is_corrupt(self, tmp_path):
        from repro.validate.artifacts import validate_trace_dir

        streamed = self._streamed(tmp_path)
        shard = streamed.directory / shard_name(2)
        blob = bytearray(shard.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        shard.write_bytes(bytes(blob))
        report = validate_trace_dir(streamed.directory)
        assert [f.code for f in report.errors] == ["trace-shard-corrupt"]

    def test_missing_shard(self, tmp_path):
        from repro.validate.artifacts import validate_trace_dir

        streamed = self._streamed(tmp_path)
        (streamed.directory / shard_name(3)).unlink()
        report = validate_trace_dir(streamed.directory)
        assert [f.code for f in report.errors] == ["trace-shard-missing"]
        with pytest.raises(TraceShardCorruptError):
            list(streamed.iter_chunks())

    def test_manifest_shard_count_mismatch(self, tmp_path):
        from repro.validate.artifacts import validate_trace_dir

        streamed = self._streamed(tmp_path)
        manifest_path = streamed.directory / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        dropped = manifest["shards"].pop()
        manifest["refs"] -= dropped["refs"]
        body = dict(manifest)
        body.pop("checksum", None)
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        manifest["checksum"] = (
            f"{zlib.crc32(canonical.encode('utf-8')) & 0xFFFFFFFF:08x}"
        )
        manifest_path.write_text(json.dumps(manifest, sort_keys=True))
        report = validate_trace_dir(streamed.directory)
        assert report.errors
        assert all(
            f.code == "trace-manifest-mismatch" for f in report.errors
        )

    def test_duplicate_shard_index(self, tmp_path):
        from repro.validate.artifacts import validate_trace_dir

        streamed = self._streamed(tmp_path)
        manifest_path = streamed.directory / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"][1] = dict(manifest["shards"][0])
        body = dict(manifest)
        body.pop("checksum", None)
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        manifest["checksum"] = (
            f"{zlib.crc32(canonical.encode('utf-8')) & 0xFFFFFFFF:08x}"
        )
        manifest_path.write_text(json.dumps(manifest, sort_keys=True))
        report = validate_trace_dir(streamed.directory)
        assert report.errors
        assert all(
            f.code == "trace-manifest-mismatch" for f in report.errors
        )

    def test_manifest_bit_flip_fails_self_checksum(self, tmp_path):
        streamed = self._streamed(tmp_path)
        manifest_path = streamed.directory / MANIFEST_FILENAME
        text = manifest_path.read_text().replace('"refs"', '"refz"', 1)
        manifest_path.write_text(text)
        with pytest.raises(TraceShardCorruptError):
            read_manifest(streamed.directory)

    def test_undamaged_trace_validates_clean(self, tmp_path):
        from repro.validate.artifacts import validate_trace_dir

        report = validate_trace_dir(self._streamed(tmp_path).directory)
        assert not report.errors and not report.warnings

    def test_format_version_pinned(self, tmp_path):
        manifest = read_manifest(self._streamed(tmp_path).directory)
        assert manifest["format"] == SHARD_FORMAT_VERSION


class TestSimCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sim.ckpt"
        payload = {"kind": "fullassoc", "next_shard": 3, "state": {"x": [1]}}
        save_sim_checkpoint(path, payload)
        assert load_sim_checkpoint(path) == payload

    def test_missing_returns_none(self, tmp_path):
        assert load_sim_checkpoint(tmp_path / "absent.ckpt") is None

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda data: data[: len(data) // 2],
            lambda data: data.replace(b"SIMCKPT1", b"SIMCKPT9"),
            lambda data: data[:-4] + b"!!!}",
            lambda data: b"",
        ],
        ids=["truncated", "bad-magic", "payload-flip", "empty"],
    )
    def test_damage_returns_none(self, tmp_path, mutate):
        path = tmp_path / "sim.ckpt"
        save_sim_checkpoint(path, {"next_shard": 1, "state": {}})
        path.write_bytes(mutate(path.read_bytes()))
        assert load_sim_checkpoint(path) is None


class TestWriteFaults:
    def test_enospc_raises_typed_error(self, tmp_path):
        from repro.runtime.iofault import IOFaultInjector, install

        builder = StreamingTraceBuilder(tmp_path / "f.trd", shard_refs=8)
        with install(IOFaultInjector.parse("shard:write:enospc:1")):
            with pytest.raises(TraceFileWriteError):
                builder.extend_arrays(
                    np.arange(64, dtype=np.int64) * 8,
                    np.zeros(64, dtype=np.uint8),
                )
                builder.build()

    def test_interrupted_build_leaves_only_staging(self, tmp_path):
        builder = StreamingTraceBuilder(tmp_path / "s.trd", shard_refs=4)
        builder.read_range(0, 40)  # spills, but never build()
        assert (tmp_path / "s.trd.tmp").is_dir()
        assert not (tmp_path / "s.trd").exists()
