"""The three benchmark workloads: cold_start, flow_traffic, fault_churn.

Every workload is closed-loop: one caller in one thread waits for each
call into the simulator to return before making the next.  Inputs (the
topology spec, the flow list, the fault plan, the probe plan) are pure
functions of the workload seed; the simulator only ever sees those
generated inputs and runs with its shipped defaults (no cache, fast
path, install-path or queue switch is touched).

A workload object is single-use: ``setup()`` (timed as ``setup_s``),
``make_inputs()``, ``run()`` (timed as ``run_s``), ``after_run()``, then
``checks()`` and ``digest()`` on the result.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

import repro.analyze.catchment as catchment
from repro.anycast.default_routes import DefaultRootedAnycast
from repro.core.metrics import measure_reachability
from repro.core.orchestrator import Orchestrator
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.measure import ProbeEngine, ProbePlan, ProbeTarget
from repro.net.link import LinkScope
from repro.net.network import Network
from repro.net.packet import ipv4_packet
from repro.topogen import scale
from repro.trace.workloads import gravity_pairs
from repro.vnbone.deployment import VnDeployment

from tracing import Tracer

#: Simulated seconds between fault_churn's fault boundaries.
FAULT_SPACING = 40.0

#: Relative slack for comparing a probe's summed-link RTT with the
#: oracle's Dijkstra RTT: the two add the same delays in different
#: orders, so an equal path may differ in the last bits.
RTT_EPSILON = 1e-9


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def fib_digest(network: Network) -> str:
    """SHA-256 over every node's ``Fib.snapshot()``, in node-id order."""
    digest = hashlib.sha256()
    for node_id in sorted(network.nodes):
        fib = getattr(network.node(node_id), "fib4", None)
        if fib is not None:
            digest.update(json.dumps([node_id, fib.snapshot()]).encode())
    return digest.hexdigest()


def fib_entries(network: Network) -> int:
    return sum(len(node.fib4) for node in network.nodes.values()
               if getattr(node, "fib4", None) is not None)


class Workload:
    """Shared lifecycle; subclasses fill in ``setup`` and ``_run``."""

    name = ""

    def __init__(self, seed: int, budget: int,
                 tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.budget = budget
        self.tracer = tracer
        self.orchestrator: Optional[Orchestrator] = None
        self.network: Optional[Network] = None
        #: Per-operation seconds of the workload's unit operation.
        self.op_seconds: List[float] = []
        #: Seconds the timed phase took (set by whoever timed it).
        self.run_s = 0.0
        self.attempted = 0
        self.failed = 0
        #: Attempts and failures behind the reported ``fail_frac``
        #: (transient fault loss included, unlike ``failed``).
        self.fail_attempted = 0
        self.fail_count = 0
        #: Workload-specific metrics: name -> (value, unit, samples).
        self.extra: Dict[str, Tuple[float, str, int]] = {}
        #: Span index where the timed phase began, and program counters
        #: at its start and end.
        self.run_mark = 0
        self.before: Dict[str, int] = {}
        self.after: Dict[str, int] = {}

    def _build(self) -> None:
        """Generate the internet and converge it (the cold-start core)."""
        generated = scale.generate_scale_internet(
            scale.spec_for_router_budget(self.budget, seed=self.seed))
        self.generated = generated
        self.network = generated.network
        self.orchestrator = Orchestrator(generated.network, seed=self.seed)

    def _build_with_ipv8(self) -> None:
        """Build and converge, then deploy IPv8 with default-rooted
        anycast in the first four transit ASes."""
        self._build()
        assert self.orchestrator is not None
        self.orchestrator.converge()
        transit = self.generated.transit
        scheme = DefaultRootedAnycast(self.orchestrator, "ipv8",
                                      default_asn=transit[0])
        self.deployment = VnDeployment(self.orchestrator, scheme, version=8)
        for asn in transit[:4]:
            self.deployment.deploy(asn)
        self.deployment.rebuild()

    def setup(self) -> None:
        """Everything before the timed phase (timed as ``setup_s``)."""
        raise NotImplementedError

    def make_inputs(self) -> None:
        """Generate the workload's inputs from the seed (untimed)."""

    def run(self) -> None:
        """The timed phase (``run_s``)."""
        assert self.orchestrator is not None
        if self.tracer is not None:
            self.run_mark = self.tracer.mark()
            self.tracer.queue_peak = 0
            self.tracer.hops = 0
        self.before = self._counters()
        self._run()
        self.after = self._counters()

    def _counters(self) -> Dict[str, int]:
        """Program-side counters, read at both ends of the timed phase."""
        assert self.orchestrator is not None and self.network is not None
        counters = {"fastpath." + key: value for key, value
                    in self.orchestrator.engine.fastpath.stats().items()}
        counters["bgp.install_fib_lookups"] = \
            self.orchestrator.bgp.install_fib_lookups
        counters["bgp.messages"] = self.orchestrator.bgp.stats.sent
        counters["routing.messages"] = sum(
            igp.stats.sent for igp in self.orchestrator.igps.values())
        counters["fib.entries"] = fib_entries(self.network)
        return counters

    def after_run(self) -> None:
        """Untimed work on the outputs: per-operation samples, counts."""

    def checks(self) -> List[str]:
        """Names of the correctness checks that failed (empty: all held)."""
        raise NotImplementedError

    def digest(self) -> str:
        raise NotImplementedError

    def _run(self) -> None:
        raise NotImplementedError


class ColdStart(Workload):
    """Generate a large internet, then time ``Orchestrator.converge()``.

    Control plane only: IGP flood and SPF, BGP decide/export with MRAI
    batching, grouped install and FIB inserts.  Nothing is forwarded in
    the timed phase.  Afterwards a fixed sample of host pairs is walked
    once each (cold fast path, so every walk is a slow-path LPM walk of
    the large FIBs); those walks are the delivery check and the
    workload's per-operation latency, and stay out of ``run_s``.
    """

    name = "cold_start"

    def __init__(self, seed: int, budget: int = 5000,
                 sample_pairs: int = 2000, tracer: Optional[Tracer] = None
                 ) -> None:
        super().__init__(seed, budget, tracer)
        self.sample_pairs = sample_pairs

    def setup(self) -> None:
        self._build()

    def _run(self) -> None:
        assert self.orchestrator is not None
        self.orchestrator.converge()

    def after_run(self) -> None:
        assert self.orchestrator is not None and self.network is not None
        rng = random.Random(self.seed)
        hosts = self.generated.hosts
        self.pairs = []
        while len(self.pairs) < self.sample_pairs:
            src, dst = rng.choice(hosts), rng.choice(hosts)
            if src != dst:
                self.pairs.append((src, dst))
        clock = time.perf_counter
        self.delivered = 0
        for src, dst in self.pairs:
            packet = ipv4_packet(self.network.node(src).ipv4,
                                 self.network.node(dst).ipv4)
            t0 = clock()
            trace = self.orchestrator.engine.forward(packet, src)
            self.op_seconds.append(clock() - t0)
            self.delivered += trace.delivered
        self.attempted = self.fail_attempted = len(self.pairs)
        self.failed = self.fail_count = len(self.pairs) - self.delivered
        walks = len(self.op_seconds)
        self.extra["walk_us_p50"] = (
            percentile(self.op_seconds, 50) * 1e6, "us", walks)
        self.extra["walk_us_p99"] = (
            percentile(self.op_seconds, 99) * 1e6, "us", walks)

    def checks(self) -> List[str]:
        return [] if self.failed == 0 else ["cold_start.all_delivered"]

    def digest(self) -> str:
        assert self.network is not None
        return fib_digest(self.network)


class FlowTraffic(Workload):
    """Push a seeded packet stream through a converged, idle internet.

    ``n_flows`` gravity-model host pairs; flow ``rank`` carries about
    ``n_packets / (H * rank)`` packets (Zipf, s=1), ranks assigned to
    pairs by the seed, and every tenth rank is an IPv8 flow sent with
    ``VnDeployment.send``.  Fixing the vN flows by rank keeps the IPv8
    packet share the same for every seed.
    """

    name = "flow_traffic"

    def __init__(self, seed: int, budget: int = 1000, n_flows: int = 4000,
                 n_packets: int = 100_000, tracer: Optional[Tracer] = None
                 ) -> None:
        super().__init__(seed, budget, tracer)
        self.n_flows = n_flows
        self.n_packets = n_packets

    def setup(self) -> None:
        self._build_with_ipv8()

    def make_inputs(self) -> None:
        """The flow list and packet order (benchmark input, untimed)."""
        assert self.network is not None
        rng = random.Random(self.seed)
        pairs = gravity_pairs(self.network, self.n_flows, seed=self.seed)
        ranks = list(range(1, self.n_flows + 1))
        rng.shuffle(ranks)
        harmonic = sum(1.0 / r for r in ranks)
        flows = []
        stream: List[int] = []
        for index, ((src, dst), rank) in enumerate(zip(pairs, ranks)):
            count = max(1, round(self.n_packets / (harmonic * rank)))
            flows.append((src, dst, rank % 10 == 0,
                          self.network.node(src).ipv4,
                          self.network.node(dst).ipv4))
            stream.extend([index] * count)
        rng.shuffle(stream)
        self.flows = flows
        self.stream = stream

    def _run(self) -> None:
        assert self.orchestrator is not None
        forward = self.orchestrator.engine.forward
        send = self.deployment.send
        flows = self.flows
        clock = time.perf_counter
        durations = self.op_seconds
        is_vn: List[bool] = []
        traces = []
        for index in self.stream:
            src, dst, vn, src_ip, dst_ip = flows[index]
            if vn:
                t0 = clock()
                trace = send(src, dst)
            else:
                packet = ipv4_packet(src_ip, dst_ip)
                t0 = clock()
                trace = forward(packet, src)
            durations.append(clock() - t0)
            is_vn.append(vn)
            traces.append(trace)
        self.is_vn = is_vn
        self.traces = traces

    def after_run(self) -> None:
        delivered = sum(trace.delivered for trace in self.traces)
        self.attempted = self.fail_attempted = len(self.traces)
        self.failed = self.fail_count = self.attempted - delivered
        packets = len(self.op_seconds)
        self.extra["pkts_per_s"] = (self.attempted / self.run_s, "1/s", packets)
        self.extra["pkt_us_p50"] = (
            percentile(self.op_seconds, 50) * 1e6, "us", packets)
        self.extra["pkt_us_p99"] = (
            percentile(self.op_seconds, 99) * 1e6, "us", packets)
        vn_us = [d for d, vn in zip(self.op_seconds, self.is_vn) if vn]
        self.extra["vn_pkt_us_p50"] = (statistics.median(vn_us) * 1e6, "us",
                                       len(vn_us))

    def _replay_mismatches(self, sample: int = 64) -> int:
        """Fast-path replays whose ``to_dict()`` differs from a slow walk.

        Counts one more mismatch unless every "fast" walk really was a
        fast-path hit and no paused walk was.
        """
        assert self.orchestrator is not None
        engine = self.orchestrator.engine
        candidates = sorted({i for i in self.stream if not self.flows[i][2]})
        chosen = random.Random(self.seed).sample(
            candidates, min(sample, len(candidates)))
        fast = {}
        hits_before = engine.fastpath.hits
        for index in chosen:
            src, dst, _, src_ip, dst_ip = self.flows[index]
            fast[index] = engine.forward(ipv4_packet(src_ip, dst_ip), src)
        all_hits = engine.fastpath.hits - hits_before == len(chosen)
        hits_before = engine.fastpath.hits
        engine.fastpath.pause()
        try:
            slow = {index: engine.forward(ipv4_packet(
                        self.flows[index][3], self.flows[index][4]),
                        self.flows[index][0]) for index in chosen}
        finally:
            engine.fastpath.resume()
        mismatches = sum(fast[i].to_dict() != slow[i].to_dict() for i in chosen)
        if not all_hits or engine.fastpath.hits != hits_before or not chosen:
            mismatches += 1
        return mismatches

    def checks(self) -> List[str]:
        failed = []
        if self.failed:
            failed.append("flow_traffic.all_delivered")
        if self._replay_mismatches():
            failed.append("flow_traffic.fastpath_replay_equals_slow_walk")
        return failed

    def digest(self) -> str:
        digest = hashlib.sha256()
        for trace in self.traces:
            digest.update(f"{trace.delivered_to}|{trace.physical_hops}|"
                          f"{trace.vn_hops}|{trace.latency!r}\n".encode())
        return digest.hexdigest()


def _connected_without(network: Network, skip: Optional[Tuple[str, str]],
                       crashed: Optional[str] = None) -> bool:
    """Whether every live node stays reachable with one link or node gone."""
    nodes = [n for n in sorted(network.nodes) if n != crashed]
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        node = frontier.pop()
        for other, link in network.neighbors(node):
            if other == crashed or link.endpoints() == skip or other in seen:
                continue
            seen.add(other)
            frontier.append(other)
    return len(seen) == len(nodes)


class FaultChurn(Workload):
    """Replay >=100 fault epochs while probes and reachability sends run.

    Seeded link flaps, half inter-domain (between transit ASes) and half
    intra-domain (inside transit ASes), plus one crash and recovery of
    a non-border IPv8 member; each flap is two epochs.  Only links and
    routers whose loss leaves the network connected are chosen, so
    every loss is transient.  A ``ProbeEngine`` probes unicast hosts
    and the anycast address throughout, and the injector's workload
    callback sends IPv4 over a fixed pair sample; the two callback calls
    of an epoch bracket its heal (reconverge, install, vN rebuild).
    """

    name = "fault_churn"

    def __init__(self, seed: int, budget: int = 200, flaps: int = 50,
                 pairs: int = 20, tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, budget, tracer)
        self.flaps = flaps
        self.n_pairs = pairs

    def setup(self) -> None:
        self._build_with_ipv8()

    def make_inputs(self) -> None:
        """Fault plan, probe plan and pair sample (untimed)."""
        assert self.network is not None
        network = self.network
        rng = random.Random(self.seed)
        transit = set(self.generated.transit)
        inter: List[Tuple[str, str]] = []
        intra: List[Tuple[str, str]] = []
        for key, link in sorted(network.links.items()):
            domains = {network.node(link.a).domain_id,
                       network.node(link.b).domain_id}
            if not domains <= transit or not _connected_without(network, key):
                continue
            (inter if link.scope is LinkScope.INTER_DOMAIN else intra).append(key)
        # Flaps cycle through each scope's shuffled candidates, so a
        # small core can still supply every flap.
        rng.shuffle(inter)
        rng.shuffle(intra)
        half = self.flaps // 2
        chosen = ([inter[i % len(inter)] for i in range(half)]
                  + [intra[i % len(intra)] for i in range(self.flaps - half)])
        members = sorted(self.deployment.members())
        victims = [m for m in members if not network.node(m).is_border
                   and _connected_without(network, None, crashed=m)]
        self.victim = rng.choice(victims) if victims else None
        actions: List[Tuple[str, ...]] = [("link",) + key for key in chosen]
        if self.victim is not None:
            actions.append(("node", self.victim))
        rng.shuffle(actions)
        plan = FaultPlan()
        for index, action in enumerate(actions):
            down = FAULT_SPACING * (2 * index + 1)
            if action[0] == "link":
                plan.link_down(action[1], action[2], at=down)
                plan.link_up(action[1], action[2], at=down + FAULT_SPACING)
            else:
                plan.crash_node(action[1], at=down)
                plan.recover_node(action[1], at=down + FAULT_SPACING)
        self.plan = plan
        hosts = self.generated.hosts
        picks = rng.sample(hosts, 9)
        self.probe_plan = ProbePlan(
            vantages=tuple(picks[:6]),
            targets=tuple([ProbeTarget(name=h, dst=network.node(h).ipv4)
                           for h in picks[6:]]
                          + [ProbeTarget(name="anycast",
                                         dst=self.deployment.scheme.address,
                                         kind="anycast")]),
            # Every round fires inside play(), where the fast path is
            # paused: the first after play() starts, the last before the
            # final epoch.
            interval=FAULT_SPACING / 2, start=FAULT_SPACING / 2,
            rounds=4 * len(actions) - 1)
        self.pairs = []
        while len(self.pairs) < self.n_pairs:
            src, dst = rng.choice(hosts), rng.choice(hosts)
            if src != dst:
                self.pairs.append((src, dst))
        self.pre_digest = fib_digest(network)

    def _run(self) -> None:
        orchestrator = self.orchestrator
        assert orchestrator is not None and self.network is not None
        clock = time.perf_counter
        marks: List[Tuple[float, float]] = []
        reports = []
        pairs = self.pairs

        tracer = self.tracer
        network = self.network

        def send(src: str, dst: str):
            return orchestrator.engine.forward(ipv4_packet(
                network.node(src).ipv4, network.node(dst).ipv4), src)

        def workload():
            t0 = clock()
            with (tracer.span("faults.workload") if tracer else nullcontext()):
                report = measure_reachability(network, send, pairs)
            marks.append((t0, clock()))
            reports.append(report)
            return report

        engine = ProbeEngine(orchestrator.scheduler, orchestrator.engine,
                             self.network, self.probe_plan,
                             replicas=self.deployment.live_members)
        injector = FaultInjector(orchestrator, self.plan,
                                 deployments=[self.deployment])
        engine.arm()
        self.epochs = injector.play(workload)
        engine.finish()
        self.catchment = catchment.build_catchment(
            [sample.to_dict() for sample in engine.samples],
            [{"t": r.time, "description": r.description}
             for r in injector.records],
            context={"workload": self.name, "seed": self.seed})
        self.samples = engine.samples
        self.marks = marks

    def after_run(self) -> None:
        # Calls alternate transient, recovered: heal is the gap between.
        for (_, transient_end), (recovered_start, _) in zip(
                self.marks[0::2], self.marks[1::2]):
            self.op_seconds.append(recovered_start - transient_end)
        # An operation is one epoch played to quiescence; a failed one
        # raises out of play().  Undelivered probes and sends are the
        # measured effect of the faults and count towards fail_frac.
        self.attempted = len(self.epochs)
        lost = sum(1 for s in self.samples if not s.delivered)
        sends = ([e.recovered for e in self.epochs]
                 + [e.transient for e in self.epochs])
        self.fail_attempted = len(self.samples) + sum(r.attempted for r in sends)
        self.fail_count = lost + sum(r.attempted - r.delivered for r in sends)
        heals = len(self.op_seconds)
        self.extra["heal_s_p50"] = (percentile(self.op_seconds, 50), "s", heals)
        self.extra["heal_s_p90"] = (percentile(self.op_seconds, 90), "s", heals)
        self.extra["epochs"] = (float(len(self.epochs)), "count",
                                len(self.epochs))

    def checks(self) -> List[str]:
        assert self.network is not None
        failed = []
        if len(self.epochs) != len(self.plan.epochs()):
            failed.append("fault_churn.all_epochs_played")
        if fib_digest(self.network) != self.pre_digest:
            failed.append("fault_churn.fib_digest_heals")
        if any(s.rtt is not None and s.best_rtt is not None
               and s.rtt < s.best_rtt * (1 - RTT_EPSILON)
               for s in self.samples):
            failed.append("fault_churn.rtt_not_below_best")
        if catchment.validate_catchment_dict(self.catchment):
            failed.append("fault_churn.catchment_valid")
        if self.catchment["flaps"]["count"] != 0:  # type: ignore[index]
            failed.append("fault_churn.no_flaps")
        return failed

    def digest(self) -> str:
        doc = {"catchment": self.catchment,
               "epochs": [e.to_dict() for e in self.epochs],
               "fib": self.pre_digest}
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest()


WORKLOADS = {cls.name: cls for cls in (ColdStart, FlowTraffic, FaultChurn)}
