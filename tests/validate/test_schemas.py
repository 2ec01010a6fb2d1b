"""Tests for the self-contained schema validator and artifact schemas."""

from __future__ import annotations

import pytest

from repro.validate.schemas import (
    ENVELOPE_SCHEMA,
    PAYLOAD_SCHEMAS,
    check_schema,
    schema_for,
)


class TestValidator:
    def test_type_match(self):
        assert check_schema("x", {"type": "string"}) == []
        assert check_schema(3, {"type": "integer"}) == []

    def test_type_mismatch_names_path(self):
        errors = check_schema({"a": "x"}, {
            "type": "object",
            "properties": {"a": {"type": "number"}},
        })
        assert errors and "$.a" in errors[0]

    def test_bool_is_not_an_integer(self):
        assert check_schema(True, {"type": "integer"})
        assert check_schema(True, {"type": "number"})
        assert check_schema(True, {"type": "boolean"}) == []

    def test_union_types(self):
        schema = {"type": ["number", "null"]}
        assert check_schema(None, schema) == []
        assert check_schema(1.5, schema) == []
        assert check_schema("no", schema)

    def test_enum(self):
        schema = {"type": "string", "enum": ["ok", "failed"]}
        assert check_schema("ok", schema) == []
        assert check_schema("meh", schema)

    def test_minimum(self):
        schema = {"type": "integer", "minimum": 1}
        assert check_schema(1, schema) == []
        assert check_schema(0, schema)

    def test_required(self):
        schema = {"type": "object", "required": ["a", "b"]}
        errors = check_schema({"a": 1}, schema)
        assert len(errors) == 1 and "'b'" in errors[0]

    def test_additional_properties_false(self):
        schema = {
            "type": "object",
            "properties": {"a": {"type": "integer"}},
            "additionalProperties": False,
        }
        assert check_schema({"a": 1}, schema) == []
        assert check_schema({"a": 1, "z": 2}, schema)

    def test_additional_properties_schema(self):
        schema = {
            "type": "object",
            "additionalProperties": {"type": "string"},
        }
        assert check_schema({"k": "v"}, schema) == []
        assert check_schema({"k": 7}, schema)

    def test_array_items_with_indexed_paths(self):
        schema = {"type": "array", "items": {"type": "integer"}}
        errors = check_schema([1, "two", 3], schema)
        assert len(errors) == 1 and "[1]" in errors[0]

    def test_nested_recursion(self):
        schema = {
            "type": "object",
            "properties": {
                "rows": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["id"],
                    },
                }
            },
        }
        assert check_schema({"rows": [{"id": 1}, {}]}, schema)


class TestArtifactSchemas:
    def test_schema_for_known_kinds(self):
        for kind in PAYLOAD_SCHEMAS:
            assert schema_for(kind)["type"] == "object"

    def test_schema_for_unknown_kind(self):
        with pytest.raises(KeyError, match="choices"):
            schema_for("nope")

    def test_envelope_schema(self):
        good = {"format": 1, "sha256": "ab" * 32, "payload": {}}
        assert check_schema(good, ENVELOPE_SCHEMA) == []
        assert check_schema({"format": 1}, ENVELOPE_SCHEMA)

    def test_kernel_bundle_schema_names_every_kernel(self):
        from repro.mem.kernels import KERNEL_KINDS

        schema = schema_for("kernel-bundle")
        assert schema["properties"]["kernel"]["enum"] == list(KERNEL_KINDS)
        good = {
            "kernel": "multiproc",
            "chunk": 1,
            "reason": "shadow-verify",
            "pre_state": {},
            "blocks": [[0, 1], [2]],
        }
        assert check_schema(good, schema) == []
        assert check_schema(dict(good, kernel="gpu"), schema)

    def test_event_schema(self):
        good = {"seq": 1, "t_mono": 0.0, "t_wall": 1.0, "event": "start"}
        assert check_schema(good, schema_for("event")) == []
        bad = dict(good, seq=0)
        assert check_schema(bad, schema_for("event"))

    def test_outcome_schema_rejects_unknown_status(self):
        payload = {"experiment_id": "fig2", "status": "meh"}
        assert check_schema(payload, schema_for("outcome"))

    def test_curve_schema(self):
        good = {"capacities": [1, 2], "miss_rates": [0.5, 0.25]}
        assert check_schema(good, schema_for("result")["properties"]["curves"]["items"]) == []

    def test_real_engine_payloads_conform(self, tmp_path):
        """What the engine actually writes passes its own schemas."""
        from repro.experiments.runner import ExperimentResult
        from repro.runtime.engine import ExperimentOutcome

        result = ExperimentResult(experiment_id="x", title="t")
        outcome = ExperimentOutcome(
            experiment_id="x", status="ok", result=result, attempts=1
        )
        assert check_schema(outcome.to_dict(), schema_for("outcome")) == []
        assert check_schema(result.to_dict(), schema_for("result")) == []
