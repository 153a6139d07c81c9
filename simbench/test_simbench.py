"""The benchmark's own tests, on tiny internets (seconds, not minutes).

    PYTHONPATH=src python -m pytest simbench -q

They are outside the tier-1 ``tests/`` tree on purpose: the workloads
at full size take minutes and belong to ``run.py`` only.
"""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
from layers import LAYERS, OVERHEAD, is_count, layer_metrics, not_applicable  # noqa: E402
from tracing import SPECIAL_TARGETS, TARGETS, Tracer, _original  # noqa: E402
from workloads import ColdStart, FaultChurn, FlowTraffic  # noqa: E402

TINY = {
    "cold_start": functools.partial(ColdStart, budget=100, sample_pairs=50),
    "flow_traffic": functools.partial(FlowTraffic, budget=100, n_flows=60,
                                      n_packets=600),
    "fault_churn": functools.partial(FaultChurn, budget=100, flaps=6, pairs=4),
}

#: Layers each workload must exercise in its timed phase (the rest are
#: reported as not applicable).
APPLICABLE = {
    "cold_start": {"topogen", "simulator", "routing", "bgp", "fib",
                   "orchestrator"},
    "flow_traffic": {"topogen", "fib", "forwarding", "fastpath", "vnbone"},
    "fault_churn": {"topogen", "simulator", "routing", "bgp", "fib",
                    "forwarding", "vnbone", "faults", "measure", "analyze",
                    "orchestrator"},
}

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def traced_iteration(name: str, seed: int = 3):
    tracer = Tracer(f"test-{name}")
    workload, _, _ = run.iterate(TINY[name], seed, tracer=tracer)
    return workload, layer_metrics(workload, tracer)


@pytest.fixture(scope="module")
def traced_pair():
    """Two same-seed traced iterations of every workload."""
    return {name: (traced_iteration(name), traced_iteration(name))
            for name in TINY}


def test_metric_names_are_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = [name for metrics in LAYERS.values() for name, _, _ in metrics]
    _, summary, report = run.timed_runs(TINY["flow_traffic"], 3, 0.0)
    names = ([m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]] + per_layer
             + list(report))
    assert all(NAME.fullmatch(name) for name in names)
    assert [m["name"] for m in spec["per_layer"]] == per_layer + [OVERHEAD[0]]
    assert list(summary) == [m["name"] for m in spec["end_to_end"]]


def test_traced_run_restores_every_wrapped_attribute():
    keys = [(owner, attr) for owner, attr, _ in TARGETS] + list(SPECIAL_TARGETS)
    before = {key: _original(*key) for key in keys}
    traced_iteration("cold_start")
    assert all(_original(*key) is before[key] for key in keys)


def test_same_seed_gives_identical_counts_and_digests(traced_pair):
    for name, ((first, a), (second, b)) in traced_pair.items():
        counts_a = {k: v for k, v in a.items() if is_count(k)}
        counts_b = {k: v for k, v in b.items() if is_count(k)}
        assert counts_a == counts_b, name
        assert first.digest() == second.digest(), name


def test_every_layer_reports_or_is_not_applicable(traced_pair):
    for name, ((workload, values), _) in traced_pair.items():
        absent = set(not_applicable(values))
        assert set(LAYERS) - absent == APPLICABLE[name], name
        for metrics in LAYERS.values():
            assert all(metric in values for metric, _, _ in metrics)
        assert workload.checks() == [], name


def test_message_counts_are_the_protocols_own(traced_pair):
    # A cold start converges from nothing, so the timed phase's message
    # deltas are the protocols' whole MessageStats.sent counts.
    (workload, values), _ = traced_pair["cold_start"]
    orchestrator = workload.orchestrator
    assert values["bgp.messages"] == orchestrator.bgp.stats.sent > 0
    assert values["routing.messages"] == sum(
        igp.stats.sent for igp in orchestrator.igps.values()) > 0


def test_fastpath_check_needs_real_fast_path_hits():
    workload, _, _ = run.iterate(TINY["flow_traffic"], 3)
    workload.orchestrator.engine.fastpath.pause()  # drops every stored flow
    assert "flow_traffic.fastpath_replay_equals_slow_walk" in workload.checks()


def test_fault_churn_keeps_fast_path_paused(traced_pair):
    (_, values), _ = traced_pair["fault_churn"]
    assert values["fastpath.hits"] == 0
    assert values["faults.epochs"] == 14


def test_full_size_fault_plan_has_at_least_100_epochs():
    # The heal p90 needs ten samples beyond it.
    workload = FaultChurn(3)
    workload.setup()
    workload.make_inputs()
    assert len(workload.plan.epochs()) >= 100


def test_checks_name_a_broken_output():
    workload, _, _ = run.iterate(TINY["fault_churn"], 3)
    workload.pre_digest = "0" * 64
    assert "fault_churn.fib_digest_heals" in workload.checks()


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "cold_start",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
