"""Schema tests for every machine-readable CLI surface.

The ``--json`` payloads of ``estimate``, ``sweep``, ``experiment`` and
``store ls`` are contracts consumed by scripts; these tests pin
them with explicit schemas (a small JSON-Schema subset validated by
hand, so the contract lives in this file, not in a library), including
the ``--checkpoints`` flag's bookkeeping fields.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


# ----------------------------------------------------------------------
# Minimal JSON-Schema-style validator (type/properties/required/items/
# enum/additionalProperties), enough to pin the CLI contracts exactly.
# ----------------------------------------------------------------------
_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
    "null": type(None),
}


def validate(payload, schema, path="$"):
    allowed = schema.get("type")
    if allowed is not None:
        names = allowed if isinstance(allowed, list) else [allowed]
        if not any(isinstance(payload, _TYPES[name])
                   and not (name in ("integer", "number")
                            and isinstance(payload, bool))
                   for name in names):
            raise AssertionError(
                f"{path}: expected {names}, got {type(payload).__name__} "
                f"({payload!r})")
    if "enum" in schema and payload not in schema["enum"]:
        raise AssertionError(f"{path}: {payload!r} not in {schema['enum']}")
    if isinstance(payload, dict) and "properties" in schema:
        for key in schema.get("required", []):
            if key not in payload:
                raise AssertionError(f"{path}: missing required key {key!r}")
        for key, value in payload.items():
            subschema = schema["properties"].get(key)
            if subschema is None:
                if not schema.get("additionalProperties", True):
                    raise AssertionError(f"{path}: unexpected key {key!r}")
                continue
            validate(value, subschema, f"{path}.{key}")
    if isinstance(payload, list) and "items" in schema:
        for i, item in enumerate(payload):
            validate(item, schema["items"], f"{path}[{i}]")


NUMBER = {"type": "number"}
INTEGER = {"type": "integer"}
STRING = {"type": "string"}
BOOLEAN = {"type": "boolean"}

STRATEGY_SCHEMA = {
    "type": "object",
    "required": ["name", "params"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string",
                 "enum": ["systematic", "random", "stratified"]},
        "params": {"type": "object"},
    },
}

SPEC_SCHEMA = {
    "type": "object",
    "required": ["benchmark", "machine", "strategy", "scale", "metric",
                 "seed", "epsilon", "confidence", "benchmark_length",
                 "checkpoints"],
    "additionalProperties": False,
    "properties": {
        "benchmark": STRING,
        "machine": STRING,
        "strategy": STRATEGY_SCHEMA,
        "scale": NUMBER,
        "metric": {"type": "string", "enum": ["cpi", "epi"]},
        "seed": INTEGER,
        "epsilon": NUMBER,
        "confidence": NUMBER,
        "benchmark_length": {"type": ["integer", "null"]},
        "checkpoints": {"type": "string", "enum": ["off", "auto"]},
    },
}

RUN_RESULT_SCHEMA = {
    "type": "object",
    "required": [
        "spec", "estimate_mean", "estimate_cv", "confidence_interval",
        "target_met", "sample_size", "population_size", "benchmark_length",
        "rounds", "round_estimates", "tuned_sample_sizes",
        "instructions_measured", "instructions_detailed_warming",
        "instructions_fastforwarded", "instructions_restored",
        "checkpoint_restores", "detailed_fraction", "wall_seconds",
        "units", "strategy_info",
    ],
    "properties": {
        "spec": SPEC_SCHEMA,
        "estimate_mean": NUMBER,
        "estimate_cv": NUMBER,
        "confidence_interval": NUMBER,
        "target_met": BOOLEAN,
        "sample_size": INTEGER,
        "population_size": INTEGER,
        "benchmark_length": INTEGER,
        "rounds": INTEGER,
        "round_estimates": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["sample_size", "mean", "cv", "ci"],
                "additionalProperties": False,
                "properties": {"sample_size": INTEGER, "mean": NUMBER,
                               "cv": NUMBER, "ci": NUMBER},
            },
        },
        "tuned_sample_sizes": {"type": "array", "items": INTEGER},
        "instructions_measured": INTEGER,
        "instructions_detailed_warming": INTEGER,
        "instructions_fastforwarded": INTEGER,
        "instructions_restored": INTEGER,
        "checkpoint_restores": INTEGER,
        "detailed_fraction": NUMBER,
        "wall_seconds": NUMBER,
        "units": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["index", "instructions", "cycles", "energy"],
                "additionalProperties": False,
                "properties": {"index": INTEGER, "instructions": INTEGER,
                               "cycles": INTEGER, "energy": NUMBER,
                               "truncated": {"type": "boolean"}},
            },
        },
        "strategy_info": {"type": "object"},
    },
}

ESTIMATE_SCHEMA = {
    **RUN_RESULT_SCHEMA,
    "properties": {
        **RUN_RESULT_SCHEMA["properties"],
        "validation": {
            "type": "object",
            "required": ["true_value", "error"],
            "additionalProperties": False,
            "properties": {"true_value": NUMBER, "error": NUMBER},
        },
    },
    "additionalProperties": False,
}

SWEEP_SCHEMA = {"type": "array", "items": {**RUN_RESULT_SCHEMA,
                                           "additionalProperties": False}}

STUDY_RUN_SCHEMA = {
    "type": "object",
    "required": ["study", "title", "rows", "data"],
    "additionalProperties": False,
    "properties": {"study": STRING, "title": STRING,
                   "rows": {"type": "array", "items": {"type": "object"}},
                   "data": {"type": "object"}},
}

STORE_LS_SCHEMA = {
    "type": "object",
    "required": ["root", "artifacts", "sets", "bbv_profiles", "jobs"],
    "additionalProperties": False,
    "properties": {
        "root": STRING,
        "artifacts": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["namespace", "name", "size_bytes"],
                "additionalProperties": False,
                "properties": {
                    "namespace": STRING,
                    "name": STRING,
                    "size_bytes": INTEGER,
                },
            },
        },
        "jobs": {"type": "array", "items": {"type": "object"}},
        "bbv_profiles": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["benchmark", "program_hash", "interval_size",
                             "limit", "version", "intervals", "file",
                             "size_bytes"],
                "additionalProperties": False,
                "properties": {
                    "benchmark": STRING,
                    "program_hash": STRING,
                    "interval_size": INTEGER,
                    "limit": {"type": ["integer", "null"]},
                    "version": INTEGER,
                    "intervals": INTEGER,
                    "file": STRING,
                    "size_bytes": INTEGER,
                },
            },
        },
        "sets": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["benchmark", "machine", "program_hash",
                             "machine_hash", "unit_size", "stride",
                             "benchmark_length", "snapshots", "version",
                             "file", "size_bytes"],
                "additionalProperties": False,
                "properties": {
                    "benchmark": STRING,
                    "machine": STRING,
                    "program_hash": STRING,
                    "machine_hash": STRING,
                    "unit_size": INTEGER,
                    "stride": INTEGER,
                    "benchmark_length": INTEGER,
                    "snapshots": INTEGER,
                    "version": INTEGER,
                    "file": STRING,
                    "size_bytes": INTEGER,
                },
            },
        },
    },
}


@pytest.fixture(autouse=True)
def isolated_stores(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))


def run_json(capsys, argv) -> object:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


ESTIMATE_ARGS = ["estimate", "gzip.syn", "--scale", "0.05", "--n-init", "40",
                 "--epsilon", "0.5", "--rounds", "1", "--unit-size", "25",
                 "--warming", "50", "--json"]


class TestEstimateJson:
    def test_schema(self, capsys):
        payload = run_json(capsys, ESTIMATE_ARGS)
        validate(payload, ESTIMATE_SCHEMA)
        assert payload["spec"]["checkpoints"] == "off"
        assert payload["checkpoint_restores"] == 0

    def test_schema_with_checkpoints(self, capsys):
        payload = run_json(capsys, ESTIMATE_ARGS + ["--checkpoints"])
        validate(payload, ESTIMATE_SCHEMA)
        assert payload["spec"]["checkpoints"] == "auto"
        assert payload["checkpoint_restores"] > 0
        assert payload["instructions_restored"] > 0

    def test_checkpoints_do_not_change_estimates(self, capsys):
        serial = run_json(capsys, ESTIMATE_ARGS)
        restored = run_json(capsys, ESTIMATE_ARGS + ["--checkpoints"])
        for key in ("estimate_mean", "estimate_cv", "confidence_interval",
                    "units", "round_estimates", "sample_size"):
            assert serial[key] == restored[key], key

    def test_schema_with_validation(self, capsys):
        payload = run_json(capsys, ESTIMATE_ARGS + ["--validate"])
        validate(payload, ESTIMATE_SCHEMA)
        assert "validation" in payload


class TestSweepJson:
    def test_schema(self, capsys):
        payload = run_json(capsys, [
            "sweep", "--benchmarks", "gzip.syn,mcf.syn", "--scale", "0.05",
            "--epsilon", "0.5", "--checkpoints", "--json"])
        validate(payload, SWEEP_SCHEMA)
        assert len(payload) == 2
        assert [r["spec"]["benchmark"] for r in payload] == [
            "gzip.syn", "mcf.syn"]
        assert all(r["spec"]["checkpoints"] == "auto" for r in payload)


class TestExperimentJson:
    def test_schema(self, capsys):
        payload = run_json(capsys, ["study", "run", "table3", "--json"])
        validate(payload, STUDY_RUN_SCHEMA)
        assert payload["study"] == "table3"
        assert payload["data"]


class TestCheckpointLsJson:
    """The checkpoint-set and BBV-profile metadata ``store ls`` lists."""

    def test_schema_empty_store(self, capsys):
        payload = run_json(capsys, ["store", "ls", "--json"])
        validate(payload, STORE_LS_SCHEMA)
        assert payload["sets"] == []

    def test_schema_after_build(self, capsys):
        assert main(["checkpoint", "build", "gzip.syn", "--scale", "0.05",
                     "--unit-size", "25"]) == 0
        capsys.readouterr()
        payload = run_json(capsys, ["store", "ls", "--json"])
        validate(payload, STORE_LS_SCHEMA)
        (entry,) = payload["sets"]
        assert entry["benchmark"] == "gzip.syn"
        assert entry["unit_size"] == 25
        assert entry["snapshots"] > 0

    def test_schema_lists_bbv_profiles(self, capsys):
        from repro.api import CheckpointStore, resolve_benchmark

        store = CheckpointStore()
        store.get_or_profile(resolve_benchmark("gzip.syn", 0.05), 500,
                             max_instructions=20_000)
        payload = run_json(capsys, ["store", "ls", "--json"])
        validate(payload, STORE_LS_SCHEMA)
        (profile,) = payload["bbv_profiles"]
        assert profile["benchmark"] == "gzip.syn"
        assert profile["interval_size"] == 500
        assert profile["limit"] == 20_000
        assert profile["intervals"] > 0
