"""The shared bench-artifact writer: one schema'd path for every
BENCH_*.json this repo emits.

Satellite of docs/OBSERVABILITY.md "Profiles & diffs": the committed
artifacts must validate against their registered schemas, the writer
must refuse invalid payloads before touching the filesystem, and
`load_bench_json` must round-trip what `write_bench_json` wrote — the
contract `python -m repro diff --bench` relies on.
"""

import json
import pathlib

import pytest

from repro.bench.report import (
    BENCH_SCHEMAS,
    load_bench_json,
    validate_bench_payload,
    write_bench_json,
)

REPO = pathlib.Path(__file__).resolve().parent.parent.parent


def _sample(schema):
    """A minimal valid payload per registered schema."""
    if schema == "repro.bench.capacity/v1":
        return {
            "schema": schema, "seed": 11, "loads": [10000.0],
            "config": {}, "mode": "sweep", "knee_load": None,
            "points": [{"offered_load": 10000.0, "throughput": 9000.0,
                        "p50_us": 40.0, "p99_us": 90.0}],
        }
    return {
        "schema": schema, "seed": 3, "interval_us": 1000.0,
        "staleness": {"stale": 0, "reads": 100},
        "convergence": {"rounds": 2, "repaired": 5,
                        "divergent_last": 0, "converged_at_us": 5000.0},
        "spec_line": "workload seed=3 ...",
    }


def test_every_registered_schema_has_a_valid_sample():
    for schema in BENCH_SCHEMAS:
        assert validate_bench_payload(_sample(schema)) == [], schema


def test_committed_artifacts_validate():
    # The repo's own committed artifacts must load through the shared
    # reader without special cases — that is what diff --bench ingests.
    payload = load_bench_json(str(REPO / "BENCH_capacity.json"))
    assert payload["schema"] in BENCH_SCHEMAS


def test_unknown_schema_is_rejected():
    problems = validate_bench_payload({"schema": "nope/v9"})
    assert len(problems) == 1
    assert "unknown bench schema" in problems[0]
    assert "repro.bench.capacity/v1" in problems[0]  # lists known ones


def test_missing_top_level_keys_are_each_reported():
    payload = _sample("repro.antientropy.convergence/v1")
    del payload["seed"]
    del payload["convergence"]
    problems = validate_bench_payload(payload)
    assert any("'seed'" in p for p in problems)
    assert any("'convergence'" in p for p in problems)


def test_capacity_ab_requires_both_sweeps():
    payload = _sample("repro.bench.capacity/v1")
    payload["mode"] = "ab"
    problems = validate_bench_payload(payload)
    assert any("missing 'baseline'" in p for p in problems)
    assert any("missing 'mitigated'" in p for p in problems)


def test_capacity_points_are_checked_per_key():
    payload = _sample("repro.bench.capacity/v1")
    del payload["points"][0]["p99_us"]
    problems = validate_bench_payload(payload)
    assert any("point 0 missing 'p99_us'" in p for p in problems)


def test_non_serializable_payload_is_rejected():
    payload = _sample("repro.bench.capacity/v1")
    payload["config"] = {"bad": object()}
    problems = validate_bench_payload(payload)
    assert any("not JSON-serializable" in p for p in problems)


def test_writer_refuses_invalid_payloads_before_writing(tmp_path):
    target = tmp_path / "bad.json"
    with pytest.raises(ValueError) as err:
        write_bench_json(str(target), {"schema": "nope/v9"})
    assert "refusing to write" in str(err.value)
    assert not target.exists()


def test_write_load_round_trip(tmp_path):
    target = tmp_path / "ok.json"
    payload = _sample("repro.antientropy.convergence/v1")
    write_bench_json(str(target), payload)
    assert load_bench_json(str(target)) == payload
    # Deterministic formatting: sorted keys, indented, trailing newline.
    text = target.read_text()
    assert text.endswith("\n")
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_loader_rejects_a_tampered_artifact(tmp_path):
    target = tmp_path / "tampered.json"
    payload = _sample("repro.bench.capacity/v1")
    write_bench_json(str(target), payload)
    doc = json.loads(target.read_text())
    del doc["mode"]
    target.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_bench_json(str(target))
    assert "not a valid bench artifact" in str(err.value)
