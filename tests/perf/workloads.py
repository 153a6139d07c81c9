"""Seeded end-to-end scenarios for the equivalence tests.

Four fixed workloads — initial convergence, a staged reachability
sweep, a fault epoch, and a multicast fanout — each a pure function of
``(seed, quick)`` returning a JSON-safe payload.  :func:`run_leg` runs
one of them under a fresh :class:`~repro.obs.Observability` handle,
optionally inside the :func:`~tests.reference.uncached.uncached`
oracle, so tests can compare payloads and work counters between
production and the oracle (``test_determinism``), fast path on and off
(``test_fastpath``), and production and seed BGP
(``tests/bgp/test_install_equivalence``).
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.anycast import DefaultRootedAnycast
from repro.core.evolution import EvolvableInternet
from repro.core.metrics import measure_reachability
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs import Observability, observing
from repro.perf.bench import _canonical
from repro.topogen.hierarchy import InternetSpec
from repro.vnbone import VnDeployment
from repro.vnbone.multicast import enable_multicast
from tests.reference.uncached import uncached

#: A workload builds a scenario from scratch and returns its JSON-safe
#: experiment payload.  It must be a pure function of (seed, quick).
WorkloadFn = Callable[[int, bool], object]

#: Per-workload sizing knobs, quick vs. full.
WORKLOAD_SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "converge": {"quick": {}, "full": {}},
    "reachability_sweep": {"quick": {"sample": 30, "adoption_stages": 2},
                           "full": {"sample": 120, "adoption_stages": 4}},
    "fault_epoch": {"quick": {"sample": 20}, "full": {"sample": 60}},
    "multicast_fanout": {"quick": {"receivers": 4}, "full": {"receivers": 8}},
}


def _sizes(name: str, quick: bool) -> Dict[str, int]:
    return WORKLOAD_SIZES[name]["quick" if quick else "full"]


def _spec(seed: int, quick: bool) -> InternetSpec:
    """The scenario topology: fixed shape, seeded wiring."""
    if quick:
        return InternetSpec(n_tier1=2, n_tier2=3, n_stub=5, seed=seed)
    return InternetSpec(seed=seed)


def deployed_internet(seed: int, quick: bool
                      ) -> Tuple[EvolvableInternet, object]:
    """An internet with an IPv8 deployment in the first tier-1 and the
    first two stub domains (the shared workload fixture)."""
    internet = EvolvableInternet.generate(_spec(seed, quick), seed=seed)
    tier1 = internet.tier1_asns()
    stubs = internet.stub_asns()
    deployment = internet.new_deployment(version=8, scheme="default",
                                         default_asn=tier1[0])
    deployment.deploy(tier1[0])
    for asn in stubs[:2]:
        deployment.deploy(asn)
    deployment.rebuild()
    return internet, deployment


def workload_converge(seed: int, quick: bool) -> object:
    """Build + converge + deploy + rebuild; payload is the topology
    summary, the adopter map, and control-plane message totals."""
    internet, _deployment = deployed_internet(seed, quick)
    return {"describe": internet.describe(),
            "message_totals": internet.orchestrator.message_totals()}


def workload_reachability_sweep(seed: int, quick: bool) -> object:
    """Staged adoption sweep, measuring IPv8 reachability per stage."""
    sizes = _sizes("reachability_sweep", quick)
    sample = sizes["sample"]
    internet, deployment = deployed_internet(seed, quick)
    stages = [internet.reachability(8, sample=sample, seed=seed).to_dict()]
    remaining = [asn for asn in internet.stub_asns()
                 if asn not in deployment.adopting_asns()]
    for asn in remaining[:sizes["adoption_stages"]]:
        deployment.deploy(asn)
        deployment.rebuild()
        stages.append(
            internet.reachability(8, sample=sample, seed=seed).to_dict())
    return {"stages": stages,
            "ipv4": internet.ipv4_reachability(sample=sample,
                                               seed=seed).to_dict()}


def workload_fault_epoch(seed: int, quick: bool) -> object:
    """Crash/recover a vN-Bone member under a reachability workload."""
    sample = _sizes("fault_epoch", quick)["sample"]
    internet, deployment = deployed_internet(seed, quick)
    members = sorted(deployment.states)
    victim = members[1] if len(members) > 1 else members[0]
    plan = (FaultPlan()
            .crash_node(victim, at=10.0)
            .recover_node(victim, at=200.0))
    injector = FaultInjector(internet.orchestrator, plan,
                             deployments=[deployment])
    reports = injector.play(
        workload=lambda: internet.reachability(8, sample=sample, seed=seed))
    return {"victim": victim,
            "epochs": [report.to_dict() for report in reports]}


def workload_multicast_fanout(seed: int, quick: bool) -> object:
    """One group, every stub host joined, one source send."""
    internet, deployment = deployed_internet(seed, quick)
    service = enable_multicast(deployment)
    group = service.create_group()
    hosts = internet.hosts()
    receivers = hosts[1:1 + _sizes("multicast_fanout", quick)["receivers"]]
    for host_id in receivers:
        service.join(group, host_id)
    service.rebuild()
    trace = service.send(hosts[0], group)
    return {"source": hosts[0], "receivers": receivers,
            "trace": trace.to_dict()}


def vnbone_deployment(seed: int, routing_mode: str
                      ) -> Tuple[EvolvableInternet, VnDeployment]:
    """A small internet with IPv8 in one tier-1 and two stubs, built in
    *routing_mode* (``"global-spf"`` or ``"layered"``) and rebuilt once."""
    internet = EvolvableInternet.generate(
        InternetSpec(n_tier1=2, n_tier2=4, n_stub=6, hosts_per_stub=1,
                     seed=seed), seed=seed)
    adopters = [internet.tier1_asns()[0]] + internet.stub_asns()[:2]
    scheme = DefaultRootedAnycast(internet.orchestrator, "vnbone",
                                  default_asn=adopters[0])
    deployment = VnDeployment(internet.orchestrator, scheme, version=8,
                              routing_mode=routing_mode)
    for asn in adopters:
        deployment.deploy(asn)
    deployment.rebuild()
    return internet, deployment


def _fib_digest(network) -> str:
    """SHA-256 of every router's canonical IPv4 FIB dump."""
    dump = {node_id: node.fib4.snapshot()
            for node_id, node in sorted(network.nodes.items())
            if node.is_router}
    text = json.dumps(dump, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _vnbone_snapshot(internet: EvolvableInternet,
                     deployment: VnDeployment) -> object:
    members = sorted(deployment.members())
    return {
        "fib_digest": _fib_digest(internet.network),
        "tunnels": [[t.a, t.b, t.cost] for t in deployment.tunnels],
        "distances": {a: {b: deployment.routing.distance(a, b)
                          for b in members} for a in members},
        "reachability": measure_reachability(
            internet.network, deployment.send,
            internet.host_pairs(sample=30)).to_dict(),
    }


def _fail_under_tunnel(network, deployment: VnDeployment):
    """Fail the first physical link under an intra-domain tunnel whose
    loss keeps every tunnel but changes a tunnel cost; returns it."""
    before = {t.endpoints(): t.cost for t in deployment.tunnels}
    for tunnel in list(deployment.tunnels):
        link = network.link_between(tunnel.a, tunnel.b)
        if tunnel.kind != "intra" or link is None:
            continue
        link.fail()
        deployment.rebuild()
        after = {t.endpoints(): t.cost for t in deployment.tunnels}
        if after.keys() == before.keys() and after != before:
            return link
        link.restore()
        deployment.rebuild()
    raise AssertionError("no link failure changes only tunnel costs")


def vnbone_rebuilds(routing_mode: str) -> WorkloadFn:
    """Rebuilds that reuse and that must not reuse vN-Bone SPF results.

    A second rebuild with nothing changed leaves the tunnel graph as it
    was (a signature-cache hit).  Then a physical link fails that keeps
    every tunnel but raises a tunnel's cost, so only a signature that
    covers edge costs recomputes; restoring the link changes the cost
    back.
    """

    def workload(seed: int, quick: bool) -> object:
        internet, deployment = vnbone_deployment(seed, routing_mode)
        deployment.rebuild()
        stages = [_vnbone_snapshot(internet, deployment)]
        link = _fail_under_tunnel(internet.network, deployment)
        stages.append(_vnbone_snapshot(internet, deployment))
        link.restore()
        deployment.rebuild()
        stages.append(_vnbone_snapshot(internet, deployment))
        return {"failed": list(link.endpoints()), "stages": stages}

    return workload


#: Ordered (name, workload) scenarios.
WORKLOADS: List[Tuple[str, WorkloadFn]] = [
    ("converge", workload_converge),
    ("reachability_sweep", workload_reachability_sweep),
    ("fault_epoch", workload_fault_epoch),
    ("multicast_fanout", workload_multicast_fanout),
]
WORKLOAD_IDS = [name for name, _ in WORKLOADS]


@dataclass
class LegResult:
    """One production or oracle execution of one workload."""

    payload: object
    counters: Dict[str, int]

    def counter(self, name: str) -> int:
        value = self.counters.get(name, 0)
        return int(value) if isinstance(value, (int, float)) else 0


def run_leg(workload: WorkloadFn, seed: int, quick: bool,
            oracle: bool = False) -> LegResult:
    """Run one workload leg under a fresh observability handle, inside
    the :func:`uncached` oracle when *oracle* is set."""
    obs = Observability()
    with uncached() if oracle else nullcontext():
        with observing(obs):
            payload = workload(seed, quick)
    counters = obs.metrics_summary()["counters"]
    assert isinstance(counters, dict)
    return LegResult(payload=_canonical(payload), counters=dict(counters))
