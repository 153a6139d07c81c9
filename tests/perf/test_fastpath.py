"""Fast path on == fast path off: flow aggregation never changes answers.

Mirrors ``test_determinism`` (production == uncached oracle): every
scenario runs twice on the same seed — once with the flow-level
forwarding fast path enabled and once forced onto the per-packet slow
path inside the uncached oracle — and the canonical JSON payloads must
be bit-identical.  A traced fault-epoch run additionally locks the
``repro.report/v1`` critical paths: fault epochs pause the fast path,
so the span trees the analyzer extracts phase timings from are the
same event-for-event.
"""

import pytest

from repro.analyze import build_report
from repro.net.fastpath import flow_fastpath
from repro.obs import Observability, Tracer, observing
from tests.perf.workloads import (WORKLOAD_IDS, WORKLOADS, deployed_internet,
                                  run_leg, workload_fault_epoch)


@pytest.mark.parametrize("name,workload", WORKLOADS, ids=WORKLOAD_IDS)
def test_fastpath_leg_matches_slowpath_leg(name, workload):
    with flow_fastpath(True):
        on = run_leg(workload, seed=7, quick=True)
    with flow_fastpath(False):
        off = run_leg(workload, seed=7, quick=True, oracle=True)
    assert on.payload == off.payload
    # The disabled leg must never consult the flow cache.
    assert off.counter("perf.fastpath.hits") == 0
    assert off.counter("perf.fastpath.misses") == 0


def test_repeated_sweep_aggregates_flows():
    """Re-probing the same host pairs within a quiescent topology is
    served from the flow cache — the scale sweep's hot path."""
    obs = Observability()
    with flow_fastpath(True), observing(obs):
        internet, _deployment = deployed_internet(seed=7, quick=True)
        first = internet.ipv4_reachability(sample=30, seed=7).to_dict()
        second = internet.ipv4_reachability(sample=30, seed=7).to_dict()
        fastpath = internet.orchestrator.engine.fastpath
    assert first == second
    # Every probe of the second sweep replayed a cached flow.
    assert fastpath.hits >= 30
    assert fastpath.stats()["packets_aggregated"] >= 60


def test_fault_epochs_always_take_the_slow_path():
    with flow_fastpath(True):
        leg = run_leg(workload_fault_epoch, seed=7, quick=True)
    # play() pauses the fast path for the whole plan, so transient and
    # recovered measurements never replay a cached walk.
    assert leg.counter("perf.fastpath.hits") == 0


def _traced_fault_report(fastpath_on):
    obs = Observability(tracer=Tracer(context={"seed": 7,
                                               "fastpath": fastpath_on}))
    with flow_fastpath(fastpath_on), observing(obs):
        workload_fault_epoch(7, True)
    obs.close()
    return build_report(obs.tracer.events())


@pytest.mark.slow
def test_report_critical_paths_identical_fastpath_on_vs_off():
    on = _traced_fault_report(True)
    off = _traced_fault_report(False)
    assert len(on["epochs"]) == len(off["epochs"]) == 2
    for epoch_on, epoch_off in zip(on["epochs"], off["epochs"]):
        assert epoch_on["critical_path"] == epoch_off["critical_path"]
        assert epoch_on["transient"] == epoch_off["transient"]
        assert epoch_on["recovered"] == epoch_off["recovered"]
    # Forwarding distributions come from per-packet spans; the fault
    # workload's probes all run under paused epochs, so even these
    # match span-for-span.
    assert on["forwarding"] == off["forwarding"]
