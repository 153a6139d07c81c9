"""The ``repro.bench`` matrix validator, on a committed artifact.

Nothing produces matrix documents any more, so the committed
``repro.bench/v2`` matrix ``BENCH_PR6.json`` is the fixture.  That
every committed ``BENCH_*.json`` (``BENCH_PR4.json`` is v1) still
validates is checked in ``test_scale_bench``.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.perf.bench import (BENCH_SCHEMA, BENCH_SCHEMA_V1,
                              validate_bench_dict, write_bench)

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def matrix_doc():
    doc = json.loads((ROOT / "BENCH_PR6.json").read_text())
    assert doc["schema"] == BENCH_SCHEMA and doc["mode"] == "matrix"
    return doc


def test_missing_params_fails_v2_but_passes_v1(matrix_doc):
    stripped = copy.deepcopy(matrix_doc)
    for entry in stripped["workloads"].values():
        del entry["params"]
    assert any("params" in e for e in validate_bench_dict(stripped))
    legacy = copy.deepcopy(stripped)
    legacy["schema"] = BENCH_SCHEMA_V1
    del legacy["mode"]
    assert validate_bench_dict(legacy) == []


def test_write_bench_round_trips(matrix_doc, tmp_path):
    path = tmp_path / "bench.json"
    write_bench(matrix_doc, str(path))
    loaded = json.loads(path.read_text())
    assert validate_bench_dict(loaded) == []
    assert loaded == matrix_doc


def test_validator_rejects_malformed_documents(matrix_doc):
    assert validate_bench_dict(None)
    assert validate_bench_dict({}) != []

    wrong_schema = copy.deepcopy(matrix_doc)
    wrong_schema["schema"] = "repro.bench/v0"
    assert any("schema" in e for e in validate_bench_dict(wrong_schema))

    missing_totals = copy.deepcopy(matrix_doc)
    del missing_totals["totals"]
    assert validate_bench_dict(missing_totals) != []

    bad_counter = copy.deepcopy(matrix_doc)
    bad_counter["workloads"]["converge"]["dijkstra_runs"]["cached"] = "many"
    assert validate_bench_dict(bad_counter) != []
