"""Versioned JSON schemas for every artifact a campaign writes.

Each artifact class — checkpoint envelope, experiment outcome, result,
miss-rate curve, manifest, summary, journal record, trace metadata
header — has a declarative schema below, checked by a small
self-contained validator (:func:`check_schema`).  The validator
supports the subset of JSON Schema this repo needs (``type``,
``properties``, ``required``, ``items``, ``enum``, ``minimum``,
``additionalProperties``) so validation works without any third-party
dependency and the schemas stay auditable in one file.

``SCHEMA_VERSION`` names the artifact-layout generation; it is included
in validation reports so a future layout change can be versioned rather
than silently diverging.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.runtime.journal import RECORD_TYPES

#: Bumped whenever any artifact schema below changes shape.
SCHEMA_VERSION = 3

# -- the minimal validator -------------------------------------------------

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def check_schema(
    instance: object, schema: Dict[str, object], path: str = "$"
) -> List[str]:
    """Validate ``instance`` against ``schema``.

    Returns a list of error strings (empty when valid), each prefixed
    with a JSON-pointer-style path so findings name the exact field.
    """
    errors: List[str] = []
    types = schema.get("type")
    if types is not None:
        allowed = [types] if isinstance(types, str) else list(types)
        if not any(_TYPE_CHECKS[t](instance) for t in allowed):
            errors.append(
                f"{path}: expected {'/'.join(allowed)}, "
                f"got {type(instance).__name__}"
            )
            return errors  # structural checks below would be nonsense
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(
            f"{path}: value {instance!r} not in {list(schema['enum'])!r}"
        )
    minimum = schema.get("minimum")
    if (
        minimum is not None
        and isinstance(instance, (int, float))
        and not isinstance(instance, bool)
        and instance < minimum
    ):
        errors.append(f"{path}: value {instance!r} below minimum {minimum}")
    if isinstance(instance, dict):
        properties: Dict[str, Dict[str, object]] = schema.get("properties", {})
        for name in schema.get("required", []):
            if name not in instance:
                errors.append(f"{path}: missing required field {name!r}")
        extra_schema = schema.get("additionalProperties")
        for key, value in instance.items():
            if not isinstance(key, str):
                errors.append(f"{path}: non-string key {key!r}")
                continue
            if key in properties:
                errors.extend(
                    check_schema(value, properties[key], f"{path}.{key}")
                )
            elif extra_schema is False:
                errors.append(f"{path}: unexpected field {key!r}")
            elif isinstance(extra_schema, dict):
                errors.extend(
                    check_schema(value, extra_schema, f"{path}.{key}")
                )
    if isinstance(instance, list):
        item_schema = schema.get("items")
        if isinstance(item_schema, dict):
            for index, item in enumerate(instance):
                errors.extend(
                    check_schema(item, item_schema, f"{path}[{index}]")
                )
    return errors


# -- artifact schemas ------------------------------------------------------

#: The integrity envelope every checkpointed JSON file is wrapped in
#: (see :mod:`repro.runtime.checkpoint`).
ENVELOPE_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["format", "sha256", "payload"],
    "properties": {
        "format": {"type": "integer", "minimum": 1},
        "sha256": {"type": "string"},
        "payload": {"type": "object"},
    },
}

CURVE_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["capacities", "miss_rates"],
    "properties": {
        "capacities": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "miss_rates": {"type": "array", "items": {"type": "number"}},
        "metric": {"type": "string"},
        "label": {"type": "string"},
    },
}

COMPARISON_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["quantity", "measured_value"],
    "properties": {
        "quantity": {"type": "string"},
        "paper_value": {"type": ["number", "null"]},
        "measured_value": {"type": "number"},
        "unit": {"type": "string"},
        "note": {"type": "string"},
    },
}

RESULT_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["experiment_id", "title"],
    "properties": {
        "experiment_id": {"type": "string"},
        "title": {"type": "string"},
        "curves": {"type": "array", "items": CURVE_SCHEMA},
        "comparisons": {"type": "array", "items": COMPARISON_SCHEMA},
        "tables": {"type": "object", "additionalProperties": {"type": "string"}},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}

FAILURE_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["experiment_id", "attempt", "category", "error_type", "message"],
    "properties": {
        "experiment_id": {"type": "string"},
        "attempt": {"type": "integer", "minimum": 1},
        "category": {"type": "string"},
        "error_type": {"type": "string"},
        "message": {"type": "string"},
        "traceback_text": {"type": "string"},
        "degraded": {"type": "boolean"},
        "elapsed_seconds": {"type": "number", "minimum": 0},
        "timestamp": {"type": "number"},
    },
}

OUTCOME_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["experiment_id", "status"],
    "properties": {
        "experiment_id": {"type": "string"},
        "status": {"type": "string", "enum": ["ok", "degraded", "failed"]},
        "result": {"type": ["object", "null"]},
        "failures": {"type": "array", "items": FAILURE_SCHEMA},
        "attempts": {"type": "integer", "minimum": 0},
        "elapsed_seconds": {"type": "number", "minimum": 0},
    },
}

MANIFEST_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["experiments"],
    "properties": {
        "experiments": {"type": "array", "items": {"type": "string"}},
        "quick": {"type": "boolean"},
        "budget_seconds": {"type": ["number", "null"]},
        "max_attempts": {"type": "integer", "minimum": 1},
        "jobs": {"type": "integer", "minimum": 0},
        "validate": {"type": "boolean"},
        "hard_timeout_seconds": {"type": ["number", "null"]},
        "max_rss_mb": {"type": ["integer", "null"]},
    },
}

SUMMARY_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["status", "requested", "completed"],
    "properties": {
        "status": {"type": "string", "enum": ["complete", "interrupted"]},
        "requested": {"type": "array", "items": {"type": "string"}},
        "completed": {"type": "array", "items": {"type": "string"}},
        "statuses": {
            "type": "object",
            "additionalProperties": {
                "type": "string",
                "enum": ["ok", "degraded", "failed"],
            },
        },
    },
}

#: One CRC-framed record of the write-ahead journal
#: (:mod:`repro.runtime.journal`).  ``additionalProperties`` stays open:
#: each record type carries its own detail fields.
JOURNAL_RECORD_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["seq", "token", "t_wall", "type"],
    "properties": {
        "seq": {"type": "integer", "minimum": 1},
        "token": {"type": "integer", "minimum": 0},
        "t_wall": {"type": "number"},
        "type": {"type": "string", "enum": list(RECORD_TYPES)},
        "experiment_id": {"type": "string"},
        "attempt": {"type": "integer", "minimum": 1},
        "attempt_uid": {"type": "string"},
        "status": {"type": "string"},
    },
}

#: One line of ``spans.jsonl`` (:mod:`repro.obs.tracing`).  ``attrs``
#: stays open: every span name carries its own detail attributes.
SPAN_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["name", "trace_id", "span_id", "t_wall", "dur_s", "status"],
    "properties": {
        "name": {"type": "string"},
        "trace_id": {"type": "string"},
        "span_id": {"type": "string"},
        "parent_id": {"type": "string"},
        "t_wall": {"type": "number"},
        "dur_s": {"type": "number", "minimum": 0},
        "status": {"type": "string", "enum": ["ok", "error"]},
        "attrs": {"type": "object"},
        "pid": {"type": "integer", "minimum": 0},
    },
}

#: The campaign metrics snapshot (``<run_dir>/metrics.json``, written
#: by :meth:`repro.runtime.engine.CampaignEngine._write_obs_snapshot`).
METRICS_SNAPSHOT_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["format", "written_wall", "campaign", "attempts"],
    "properties": {
        "format": {"type": "integer", "minimum": 1},
        "written_wall": {"type": "number"},
        "trace_id": {"type": ["string", "null"]},
        "campaign": {
            "type": "object",
            "required": ["counters"],
            "properties": {
                "counters": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
                # Written by earlier versions only; kept so their run
                # directories still load and validate.
                "gauges": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
                "histograms": {
                    "type": "object",
                    "additionalProperties": {"type": "object"},
                },
            },
        },
        "attempts": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "properties": {
                    "rss_peak_kb": {"type": "integer", "minimum": 0},
                    "metrics_merged": {"type": "boolean"},
                    "spans": {"type": "integer", "minimum": 0},
                },
            },
        },
    },
}

#: One CRC-framed line of ``timeline.jsonl`` (:mod:`repro.obs.timeline`).
#: Recorders omit fields that do not apply to a row kind (cache rows
#: carry no ``misses`` vector, for example), so only the envelope
#: identity fields are required.
TIMELINE_ROW_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["v", "kind", "seq", "pid", "t_wall", "refs"],
    "properties": {
        "v": {"type": "integer", "minimum": 1},
        "kind": {
            "type": "string",
            # Earlier versions also wrote "fullassoc" rows.
            "enum": ["stackdist", "setassoc", "fullassoc"],
        },
        "seq": {"type": "integer", "minimum": 0},
        "pid": {"type": "integer", "minimum": 1},
        "t_wall": {"type": "number"},
        "experiment_id": {"type": "string"},
        "attempt_uid": {"type": "string"},
        "refs": {"type": "integer", "minimum": 1},
        "counted": {"type": "integer", "minimum": 0},
        "cold": {"type": "integer", "minimum": 0},
        "block_size": {"type": "integer", "minimum": 1},
        "ws_blocks": {"type": "integer", "minimum": 0},
        "capacity_bytes": {"type": "integer", "minimum": 1},
        "misses_total": {"type": "integer", "minimum": 0},
        "misses": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        # Written by earlier versions only; kept so their run
        # directories still validate.
        "cache_sizes": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "elapsed_s": {"type": "number", "minimum": 0},
        "refs_per_second": {"type": "number", "minimum": 0},
        "footprint_blocks": {"type": "integer", "minimum": 0},
        "depth_p50": {"type": "integer", "minimum": 0},
        "depth_p90": {"type": "integer", "minimum": 0},
        "depth_p99": {"type": "integer", "minimum": 0},
        "tier": {"type": "string", "enum": ["vector", "oracle"]},
    },
}

#: Artifact-kind name -> payload schema (what sits inside an envelope).
PAYLOAD_SCHEMAS: Dict[str, Dict[str, object]] = {
    "manifest": MANIFEST_SCHEMA,
    "summary": SUMMARY_SCHEMA,
    "outcome": OUTCOME_SCHEMA,
    "result": RESULT_SCHEMA,
    "failure": FAILURE_SCHEMA,
    "journal-record": JOURNAL_RECORD_SCHEMA,
    "span": SPAN_SCHEMA,
    "metrics": METRICS_SNAPSHOT_SCHEMA,
    "timeline-row": TIMELINE_ROW_SCHEMA,
}


def schema_for(kind: str) -> Dict[str, object]:
    """Look up the payload schema for an artifact kind."""
    try:
        return PAYLOAD_SCHEMAS[kind]
    except KeyError:
        raise KeyError(
            f"no schema for artifact kind {kind!r}; "
            f"choices: {sorted(PAYLOAD_SCHEMAS)}"
        )
