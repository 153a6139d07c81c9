"""Scale sweep: schema validity, leg determinism, and sweep validation.

Timing fields (``wall_*``, ``speedup``) are recorded but never
asserted on — the bar here is that both legs of every cell walk the
same flows to the same outcomes, and that the emitted document is a
valid ``repro.bench/v2`` ``scale_sweep``.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.perf.bench import BENCH_SCHEMA, validate_bench_dict
from repro.perf.scale_bench import run_cell_leg, run_sweep


@pytest.fixture(scope="module")
def sweep_doc():
    # One small cell keeps the suite fast; the CLI covers the full axis.
    return run_sweep(seed=5, quick=True, sizes=(300,))


def test_sweep_is_schema_valid(sweep_doc):
    assert validate_bench_dict(sweep_doc) == []
    assert sweep_doc["schema"] == BENCH_SCHEMA
    assert sweep_doc["mode"] == "scale_sweep"
    assert len(sweep_doc["cells"]) == 1


def test_cell_legs_deliver_identically(sweep_doc):
    cell = sweep_doc["cells"][0]
    assert cell["identical_metrics"] is True
    assert sweep_doc["totals"]["identical_metrics"] is True
    delivery = cell["delivery"]
    flows = cell["params"]["flows"]
    repeats = cell["params"]["repeats"]
    assert delivery["attempted"] == flows * repeats
    assert 0 < delivery["delivered"] <= delivery["attempted"]


def test_fastpath_leg_aggregates_repeat_sends(sweep_doc):
    cell = sweep_doc["cells"][0]
    stats = cell["fastpath"]
    # Every send is pure IPv4, so each one is a hit or a miss.
    assert stats["hits"] + stats["misses"] == cell["delivery"]["attempted"]
    assert stats["hits"] > 0
    assert stats["packets_aggregated"] >= stats["hits"]
    assert stats["flows"] <= cell["params"]["flows"]


def test_cell_leg_is_deterministic_across_fastpath_setting():
    fast = run_cell_leg(300, seed=9, n_flows=40, repeats=3, fastpath_on=True)
    slow = run_cell_leg(300, seed=9, n_flows=40, repeats=3, fastpath_on=False)
    assert fast.delivery == slow.delivery
    assert fast.routers_built == slow.routers_built
    assert fast.ases == slow.ases
    # The disabled leg never touched the flow cache.
    assert slow.fastpath_stats["hits"] == 0
    assert slow.fastpath_stats["misses"] == 0


def test_committed_bench_artifacts_stay_valid():
    # Every BENCH_*.json at the repo root, matrix and sweep alike, must
    # still validate.  Older sweeps lack fields added later, and
    # BENCH_PR9.json keeps the control_plane block of the retired
    # grouped-vs-seed leg, which the validator ignores.
    root = Path(__file__).resolve().parents[2]
    paths = sorted(root.glob("BENCH_*.json"))
    assert paths
    errors = {path.name: validate_bench_dict(json.loads(path.read_text()))
              for path in paths}
    assert errors == {path.name: [] for path in paths}


def test_validator_rejects_malformed_sweeps(sweep_doc):
    bad_mode = copy.deepcopy(sweep_doc)
    bad_mode["mode"] = "sideways"
    assert any("mode" in e for e in validate_bench_dict(bad_mode))

    no_cells = copy.deepcopy(sweep_doc)
    no_cells["cells"] = []
    assert any("cells" in e for e in validate_bench_dict(no_cells))

    bad_cell = copy.deepcopy(sweep_doc)
    bad_cell["cells"][0]["fastpath"]["hits"] = "lots"
    assert any("hits" in e for e in validate_bench_dict(bad_cell))

    bad_speedup = copy.deepcopy(sweep_doc)
    bad_speedup["cells"][0]["speedup"] = -1.0
    assert any("speedup" in e for e in validate_bench_dict(bad_speedup))
