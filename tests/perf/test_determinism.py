"""Production == the uncached oracle: caches never change an answer.

Every scenario in :mod:`tests.perf.workloads` runs twice on the same
seed — once on the production code, whose caches are always on, and
once inside :func:`tests.reference.uncached.uncached`, which recomputes
every lookup — and the canonical JSON payloads must be bit-identical.
The topology-versioned path cache, the LSDB-generation SPF cache, the
vN-Bone signature and distance caches and the BGP egress cache all sit
under these scenarios.
"""

import pytest

from repro.obs import Observability, observing
from tests.perf.workloads import (WORKLOAD_IDS, WORKLOADS, run_leg,
                                  vnbone_deployment, vnbone_rebuilds,
                                  workload_fault_epoch,
                                  workload_reachability_sweep)

ROUTING_MODES = ["global-spf", "layered"]


@pytest.fixture(scope="module")
def legs():
    """name -> (production leg, oracle leg), each run once per module."""
    return {name: (run_leg(workload, seed=7, quick=True),
                   run_leg(workload, seed=7, quick=True, oracle=True))
            for name, workload in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOAD_IDS)
def test_cached_leg_matches_uncached_leg(legs, name):
    cached, oracle = legs[name]
    assert cached.payload == oracle.payload
    # Caching may only remove Dijkstra work, never add it.
    assert cached.counter("perf.dijkstra_runs") <= \
        oracle.counter("perf.dijkstra_runs")
    # The oracle leg must not reuse any cached answer.
    assert oracle.counter("perf.path_cache.hits") == 0
    assert oracle.counter("igp.ls.spf_cache_hits") == 0
    assert oracle.counter("vnbone.spf_cache_hits") == 0


def test_caching_saves_dijkstra_runs(legs):
    cached = sum(c.counter("perf.dijkstra_runs") for c, _ in legs.values())
    oracle = sum(o.counter("perf.dijkstra_runs") for _, o in legs.values())
    assert cached < oracle


@pytest.mark.parametrize("mode", ROUTING_MODES)
def test_vnbone_rebuilds_match_oracle(mode):
    """The vN-Bone signature caches hit on an unchanged rebuild and
    still give the oracle's answers when only a tunnel cost moves."""
    cached = run_leg(vnbone_rebuilds(mode), seed=71, quick=True)
    oracle = run_leg(vnbone_rebuilds(mode), seed=71, quick=True, oracle=True)
    assert cached.counter("vnbone.spf_cache_hits") > 0
    assert oracle.counter("vnbone.spf_cache_hits") == 0
    assert cached.payload == oracle.payload
    assert cached.counter("perf.dijkstra_runs") < \
        oracle.counter("perf.dijkstra_runs")


@pytest.mark.parametrize("mode", ROUTING_MODES)
def test_crashed_member_misses_the_vnbone_cache(mode):
    obs = Observability()
    with observing(obs):
        internet, deployment = vnbone_deployment(71, mode)
        hits = obs.counter("vnbone.spf_cache_hits")
        start = hits.value
        deployment.rebuild()
        unchanged_hits = hits.value - start
        internet.network.crash_node(sorted(deployment.members())[1])
        start = hits.value
        deployment.rebuild()
        crash_hits = hits.value - start
    assert unchanged_hits > 0
    # The crashed member's tunnel graph is new: its SPF reruns.
    assert crash_hits < unchanged_hits


def test_fault_epoch_exercises_cache_invalidation():
    leg = run_leg(workload_fault_epoch, seed=7, quick=True)
    # Crash + recovery moved the topology version, so the path cache
    # must have been flushed at least twice while still being used.
    assert leg.counter("perf.path_cache.invalidations") >= 2
    assert leg.counter("perf.path_cache.hits") > 0


def test_same_seed_same_leg_is_reproducible():
    a = run_leg(workload_reachability_sweep, seed=3, quick=True)
    b = run_leg(workload_reachability_sweep, seed=3, quick=True)
    assert a.payload == b.payload
    assert a.counter("perf.dijkstra_runs") == b.counter("perf.dijkstra_runs")
