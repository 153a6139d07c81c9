"""Production BGP == the seed oracle: byte-identical FIBs.

The production control plane (grouped FIB installation over memoized
egress maps, incremental dirty-set reinstalls, MRAI-batched update
propagation — :mod:`repro.bgp.egress` / :mod:`repro.bgp.protocol`)
must be indistinguishable from the per-prefix seed path it replaced,
kept as the oracle :class:`tests.reference.seed_bgp.SeedBgpProtocol`:
identical FIB snapshots, identical experiment metrics, and identical
``repro.report/v1`` critical paths — across the workload matrix, fault
plans with session flaps, a 600-router scale internet, and both with
and without the uncached oracle (:mod:`tests.reference.uncached`).
Mirrors ``tests/perf/test_determinism`` (production == uncached) and
``tests/perf/test_fastpath`` (fast path on == off).
"""

import hashlib
import json
from contextlib import nullcontext

import pytest

from repro.analyze import build_report
from repro.bgp.routes import RouteScope
from repro.core.orchestrator import Orchestrator
from repro.faults import FaultInjector, FaultPlan
from repro.net import Prefix, ipv4
from repro.obs import Observability, Tracer, observing
from repro.topogen.scale import generate_scale_internet, spec_for_router_budget
from tests.conftest import (build_chain_network, build_hub_network,
                            build_two_domain_network)
from tests.perf.workloads import (WORKLOAD_IDS, WORKLOADS, run_leg,
                                  workload_fault_epoch)
from tests.reference.seed_bgp import SeedBgpProtocol, seed_bgp
from tests.reference.uncached import uncached

BUILDERS = [build_two_domain_network, build_chain_network,
            build_hub_network]
BUILDER_IDS = ["two_domain", "chain", "hub"]
CACHE_IDS = ["cached", "uncached"]


def fib_snapshots(network):
    """Canonical dump of every FIB — the byte-identity witness."""
    dump = {}
    for node_id in sorted(network.nodes):
        fib = getattr(network.node(node_id), "fib4", None)
        if fib is not None:
            dump[node_id] = fib.snapshot()
    return dump


def fib_digest(network):
    """SHA-256 of :func:`fib_snapshots`, for internets too big to diff."""
    text = json.dumps(fib_snapshots(network), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def on_oracle(oracle):
    """Build inside this block to run the seed oracle (or production)."""
    return seed_bgp() if oracle else nullcontext()


def on_cache(cached):
    """Run inside this block to bypass every cache (or not)."""
    return nullcontext() if cached else uncached()


def converged(build, oracle, cached=True):
    with on_oracle(oracle), on_cache(cached):
        orch = Orchestrator(build())
        orch.converge()
    return orch


class TestFreshConvergence:
    @pytest.mark.parametrize("cached", [True, False], ids=CACHE_IDS)
    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
    def test_identical_fibs(self, build, cached):
        grouped = converged(build, oracle=False, cached=cached)
        seed = converged(build, oracle=True, cached=cached)
        assert fib_snapshots(grouped.network) == fib_snapshots(seed.network)
        # Both legs really ran their own path.
        assert type(grouped.bgp) is not SeedBgpProtocol
        assert type(seed.bgp) is SeedBgpProtocol

    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
    def test_identical_loc_ribs_and_message_counts(self, build):
        grouped = converged(build, oracle=False)
        seed = converged(build, oracle=True)
        for asn, speaker in grouped.bgp.speakers.items():
            assert speaker.loc_rib == seed.bgp.speakers[asn].loc_rib
            assert speaker.adj_rib_in == seed.bgp.speakers[asn].adj_rib_in
        # Batching coalesces deliveries into fewer scheduler events but
        # never changes how many updates flow over the sessions.
        assert grouped.bgp.stats.sent == seed.bgp.stats.sent
        assert grouped.bgp.stats.delivered == seed.bgp.stats.delivered

    def test_grouped_path_saves_install_lookups(self):
        grouped = converged(build_hub_network, oracle=False)
        seed = converged(build_hub_network, oracle=True)
        assert 0 < grouped.bgp.install_fib_lookups
        assert grouped.bgp.install_fib_lookups < seed.bgp.install_fib_lookups


class TestScaleInternet:
    def test_600_router_cell_matches_oracle(self):
        """One power-law scale internet: same FIBs and RIBs as the
        oracle, with fewer install lookups and no extra events."""
        def run(oracle):
            with on_oracle(oracle):
                generated = generate_scale_internet(
                    spec_for_router_budget(600, seed=42))
                orch = Orchestrator(generated.network, seed=42)
                orch.converge()
            return orch

        grouped, seed = run(False), run(True)
        assert fib_digest(grouped.network) == fib_digest(seed.network)
        assert grouped.bgp.speakers.keys() == seed.bgp.speakers.keys()
        for asn, speaker in grouped.bgp.speakers.items():
            assert speaker.loc_rib == seed.bgp.speakers[asn].loc_rib
            assert speaker.adj_rib_in == seed.bgp.speakers[asn].adj_rib_in
        # Unlike the small fixtures, update counts differ here (605 vs
        # 539 at seed 42): a batch delivers at its first update's
        # sequence number, which reorders deliveries across sessions
        # and so changes path exploration.  Nothing is lost either way.
        for orch in (grouped, seed):
            assert orch.bgp.stats.sent == orch.bgp.stats.delivered > 0
        assert (grouped.scheduler.events_processed
                <= seed.scheduler.events_processed)
        assert (0 < grouped.bgp.install_fib_lookups
                < seed.bgp.install_fib_lookups)


def _scrub_event_counts(payload):
    """Drop scheduler-event counters from a leg payload.

    MRAI batching coalesces same-tick deliveries into fewer scheduler
    events — ``events_processed`` / ``message_totals.events`` shrinking
    is the optimization itself (the bench records it per cell as
    ``convergence_events``), so the equivalence bar covers everything
    *except* those counts.  Returns ``(scrubbed, counts)`` where
    ``counts`` lists the removed values in traversal order.
    """
    counts = []

    def walk(value):
        if isinstance(value, dict):
            out = {}
            for key, item in value.items():
                if (key in ("events_processed", "events")
                        and isinstance(item, int)):
                    counts.append(item)
                    continue
                out[key] = walk(item)
            return out
        if isinstance(value, list):
            return [walk(item) for item in value]
        return value

    return walk(payload), counts


class TestWorkloadMatrix:
    @pytest.mark.parametrize("name,workload", WORKLOADS, ids=WORKLOAD_IDS)
    def test_leg_metrics_identical_grouped_vs_seed(self, name, workload):
        on = run_leg(workload, seed=11, quick=True)
        with seed_bgp():
            off = run_leg(workload, seed=11, quick=True)
        on_payload, on_events = _scrub_event_counts(on.payload)
        off_payload, off_events = _scrub_event_counts(off.payload)
        assert on_payload == off_payload
        # Batching may only ever *remove* scheduler events.
        assert len(on_events) == len(off_events)
        assert all(grouped <= seed
                   for grouped, seed in zip(on_events, off_events))


class TestFaultReconvergence:
    @pytest.mark.parametrize("cached", [True, False], ids=CACHE_IDS)
    def test_session_flap_reconverges_to_identical_fibs(self, cached):
        """An inter-domain link flap tears the session down and brings
        it back: production and oracle must land on the same FIBs."""
        plan = (FaultPlan()
                .link_down("r1b", "r2b", at=10.0)
                .link_up("r1b", "r2b", at=50.0))

        def run(oracle):
            with on_oracle(oracle), on_cache(cached):
                orch = Orchestrator(build_two_domain_network())
                orch.converge()
                FaultInjector(orch, plan).play()
            return orch

        grouped, seed = run(False), run(True)
        assert fib_snapshots(grouped.network) == fib_snapshots(seed.network)

    def test_speaker_crash_and_recovery_identical_fibs(self):
        """Crashing every router of an AS flushes its speaker (marking
        the whole Loc-RIB dirty); recovery reannounces.  Production and
        oracle must rebuild the same forwarding state."""
        plan = (FaultPlan()
                .crash_node("y1", at=10.0)
                .crash_node("y2", at=10.0)
                .recover_node("y1", at=60.0)
                .recover_node("y2", at=60.0))

        def run(oracle):
            with on_oracle(oracle):
                orch = Orchestrator(build_hub_network())
                orch.converge()
                FaultInjector(orch, plan).play()
            return orch

        grouped, seed = run(False), run(True)
        assert fib_snapshots(grouped.network) == fib_snapshots(seed.network)

    def test_lossy_window_falls_back_but_still_matches(self):
        """While a message perturbation is active, batching must fall
        back to per-message scheduling so the loss draws line up with
        the oracle message for message — same seed, same survivors,
        same FIBs."""
        plan = (FaultPlan()
                .message_loss(start=5.0, end=40.0, prob=0.3)
                .link_down("r1b", "r2b", at=10.0)
                .link_up("r1b", "r2b", at=30.0))

        def run(oracle):
            with on_oracle(oracle):
                orch = Orchestrator(build_two_domain_network(), seed=13)
                orch.converge()
                FaultInjector(orch, plan).play()
            return orch

        grouped, seed = run(False), run(True)
        assert grouped.scheduler.messages_lost == seed.scheduler.messages_lost
        assert fib_snapshots(grouped.network) == fib_snapshots(seed.network)


class TestIncrementalReinstall:
    def test_incremental_matches_seed_reference(self):
        """A BGP-only change (no topology version bump) takes the
        incremental dirty-set path; the result must equal an oracle
        run of the same history."""
        pfx = Prefix.host(ipv4("240.0.0.9"))

        def run(oracle):
            obs = Observability()
            with on_oracle(oracle), observing(obs):
                orch = Orchestrator(build_chain_network())
                orch.converge()
                orch.bgp.originate(2, pfx, scope=RouteScope.ANYCAST_GLOBAL)
                orch.scheduler.run_until_idle()
                orch.bgp.install_routes()
            return orch, obs

        grouped, grouped_obs = run(False)
        seed, _seed_obs = run(True)
        assert fib_snapshots(grouped.network) == fib_snapshots(seed.network)
        # The second install really took the incremental path...
        counter = grouped_obs.counter("perf.bgp.incremental_installs")
        assert counter.value >= 1
        # ...and reached every router (the new anycast route is live).
        entry = grouped.network.node("z2").fib4.lookup(ipv4("240.0.0.9"))
        assert entry is not None

    def test_withdrawal_is_reinstalled_incrementally(self):
        pfx = Prefix.host(ipv4("240.0.0.9"))

        def run(oracle):
            with on_oracle(oracle):
                orch = Orchestrator(build_chain_network())
                orch.converge()
                bgp = orch.bgp
                bgp.originate(2, pfx, scope=RouteScope.ANYCAST_GLOBAL)
                orch.scheduler.run_until_idle()
                bgp.install_routes()
                bgp.withdraw(2, pfx)
                orch.scheduler.run_until_idle()
                bgp.install_routes()
            return orch

        grouped, seed = run(False), run(True)
        assert fib_snapshots(grouped.network) == fib_snapshots(seed.network)
        assert grouped.network.node("z2").fib4.lookup(ipv4("240.0.0.9")) is None

    def test_quiescent_reinstall_is_free(self):
        orch = Orchestrator(build_hub_network())
        orch.converge()
        bgp = orch.bgp
        lookups_before = bgp.install_fib_lookups
        before = fib_snapshots(orch.network)
        bgp.install_routes()  # nothing dirty, same topology version
        assert bgp.install_fib_lookups == lookups_before
        assert fib_snapshots(orch.network) == before


def _traced_fault_report(oracle):
    obs = Observability(tracer=Tracer(context={"seed": 7}))
    with on_oracle(oracle), observing(obs):
        workload_fault_epoch(7, True)
    obs.close()
    return build_report(obs.tracer.events())


@pytest.mark.slow
def test_report_critical_paths_identical_grouped_vs_seed():
    on = _traced_fault_report(False)
    off = _traced_fault_report(True)
    assert len(on["epochs"]) == len(off["epochs"]) == 2
    for epoch_on, epoch_off in zip(on["epochs"], off["epochs"]):
        assert epoch_on["critical_path"] == epoch_off["critical_path"]
        assert epoch_on["transient"] == epoch_off["transient"]
        assert epoch_on["recovered"] == epoch_off["recovered"]
    assert on["forwarding"] == off["forwarding"]
