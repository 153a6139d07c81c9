"""The topology-size sweep (``python -m repro bench``).

Measures the flow-level forwarding fast path on the internet-scale
topology tier (:mod:`repro.topogen.scale`): for each router budget on
the size axis, build + converge the same seeded power-law internetwork
twice — once with the fast path enabled and once forced onto the
per-packet slow path — and drive an identical seeded traffic phase
through both.  The traffic phase is where scale hurts: a fixed set of
host-pair *flows*, each sent ``repeats`` times, exactly the repeated
identical walks the fast path aggregates.  Only the traffic phase is
timed; build and convergence cost is identical across legs and
reported separately per cell.

The emitted document is ``repro.bench/v2`` with ``"mode":
"scale_sweep"``::

    {
      "schema": "repro.bench/v2",
      "mode": "scale_sweep",
      "seed": 42,
      "quick": true,
      "cells": [
        {
          "routers_requested": 1000,
          "routers_built": int,       # routers + hosts actually built
          "ases": int,
          "params": {"flows": int, "repeats": int},
          "wall_seconds": {"fastpath": float, "slowpath": float},
          "build_wall_seconds": {"fastpath": float, "slowpath": float},
          "speedup": float,           # slowpath / fastpath traffic wall
          "fastpath": {"hits": int, "misses": int, "flows": int,
                        "packets_aggregated": int},
          "delivery": {"attempted": int, "delivered": int,
                        "physical_hops": int},
          "identical_metrics": bool,  # delivery identical across legs
          "measurement": {"probes": int, "delivered": int,
                           "rtt_mean": float,
                           "identical_series": bool}
        }, ...
      ],
      "totals": {"wall_seconds": {"fastpath": float, "slowpath": float},
                  "identical_metrics": bool,
                  "identical_probe_series": bool}
    }

``identical_metrics`` is the correctness bit: both legs must deliver
the same packets over the same hop counts.  ``measurement`` drives a
small :mod:`repro.measure` probe plan through each leg after the timed
traffic phase — ``identical_series`` proves the full RTT probe series
(sample for sample, latency included) is unchanged by the fast path.  ``speedup`` and the
``wall_*`` fields are nondeterministic — plot them, never gate on them
(the CI smoke job checks schema and determinism only).

Sweeps committed before the BGP seed path became a test oracle
(``BENCH_PR9.json``) also carry a per-cell ``control_plane`` block
comparing the two install paths; the validator ignores it.  That
comparison now lives in ``tests/bgp/test_install_equivalence.py``.

The legs run without an observability handle on purpose: at 10k+
routers per-packet span emission dominates the walk itself, and the
sweep measures forwarding, not tracing.  Fast-path statistics come
from :meth:`~repro.net.fastpath.FlowFastPath.stats`, which is plain
integers and always live.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.orchestrator import Orchestrator
from repro.measure import ProbeEngine, ProbePlan, ProbeTarget
from repro.net.fastpath import flow_fastpath
from repro.net.network import Network
from repro.net.packet import ipv4_packet
from repro.perf.bench import BENCH_SCHEMA, DEFAULT_SEED, _canonical
from repro.topogen.scale import (generate_scale_internet, scale_rng,
                                 spec_for_router_budget)

#: Default output path for the sweep artifact (PR-stamped so the repo
#: accumulates a trajectory).
DEFAULT_SWEEP_PATH = "BENCH_PR9.json"
#: Router budgets on the size axis.
QUICK_SIZES: Tuple[int, ...] = (300, 600, 1000)
FULL_SIZES: Tuple[int, ...] = (1_000, 10_000, 50_000)
#: Traffic-phase sizing: (distinct flows, sends per flow).
QUICK_TRAFFIC = (120, 25)
FULL_TRAFFIC = (400, 40)

#: rng-stream tag for flow sampling (disjoint from the generator's
#: per-AS streams, which are keyed by ASN).
_FLOW_STREAM = 0x5EED

#: Probe-plan sizing of the per-leg measurement phase: (vantages,
#: unicast targets, rounds, sim-time interval).  Tiny on purpose — the
#: phase is an equivalence check, not a benchmark.
_PROBE_SHAPE = (4, 2, 3, 5.0)


@dataclass
class CellLeg:
    """One fast-path-on or fast-path-off execution of one sweep cell."""

    routers_built: int
    ases: int
    build_wall_seconds: float
    traffic_wall_seconds: float
    delivery: Dict[str, int]
    fastpath_stats: Dict[str, int]
    probe_series: Dict[str, object]


def _sample_flows(hosts: Sequence[str], n_flows: int,
                  seed: int, n_routers: int) -> List[Tuple[str, str]]:
    """A seeded set of ordered host pairs; a pure function of
    ``(seed, n_routers)`` so both legs probe identical flows."""
    rng = scale_rng(_FLOW_STREAM + n_routers, seed)
    flows: List[Tuple[str, str]] = []
    for _ in range(n_flows):
        src = hosts[rng.randrange(len(hosts))]
        dst = hosts[rng.randrange(len(hosts))]
        while dst == src:
            dst = hosts[rng.randrange(len(hosts))]
        flows.append((src, dst))
    return flows


def _probe_series(orchestrator: Orchestrator, network: Network,
                  hosts: Sequence[str]) -> Dict[str, object]:
    """Run the per-leg measurement phase: a tiny unicast probe plan.

    Vantages are the first hosts, targets the last — a pure function of
    the generated host order, so both legs run the identical plan.  The
    legs have no observability handle; the engine's in-memory samples
    are the series.
    """
    n_vantages, n_targets, rounds, interval = _PROBE_SHAPE
    vantages = tuple(hosts[:n_vantages])
    target_hosts = [h for h in hosts[-n_targets:] if h not in vantages]
    if not target_hosts:
        return {"probes": 0, "delivered": 0, "lost": 0, "samples": []}
    plan = ProbePlan(
        vantages=vantages,
        targets=tuple(ProbeTarget(name=h, dst=network.node(h).ipv4)
                      for h in target_hosts),
        interval=interval, rounds=rounds)
    engine = ProbeEngine(orchestrator.scheduler, orchestrator.engine,
                         network, plan)
    engine.arm()
    engine.finish()
    return engine.series()


def run_cell_leg(n_routers: int, seed: int, n_flows: int, repeats: int,
                 fastpath_on: bool) -> CellLeg:
    """Build, converge, and drive one leg of one sweep cell."""
    with flow_fastpath(fastpath_on):
        wall_build_t0 = time.perf_counter()
        spec = spec_for_router_budget(n_routers, seed=seed)
        generated = generate_scale_internet(spec)
        orchestrator = Orchestrator(generated.network, seed=seed)
        orchestrator.converge()
        wall_build = time.perf_counter() - wall_build_t0
        hosts = generated.hosts
        flows = _sample_flows(hosts, n_flows, seed, n_routers)
        network = generated.network
        engine = orchestrator.engine
        attempted = delivered = physical_hops = 0
        wall_traffic_t0 = time.perf_counter()
        for src, dst in flows:
            src_ip = network.node(src).ipv4
            dst_ip = network.node(dst).ipv4
            for _ in range(repeats):
                trace = engine.forward(ipv4_packet(src_ip, dst_ip), src)
                attempted += 1
                if trace.delivered:
                    delivered += 1
                physical_hops += trace.physical_hops
        wall_traffic = time.perf_counter() - wall_traffic_t0
        # Snapshot before the probe leg: the fastpath invariant
        # (hits + misses == attempted) is pinned to the traffic loop.
        fastpath_stats = engine.fastpath.stats()
        probe_series = _probe_series(orchestrator, network, hosts)
    return CellLeg(
        routers_built=len(network.nodes),
        ases=len(network.domains),
        build_wall_seconds=wall_build,
        traffic_wall_seconds=wall_traffic,
        delivery={"attempted": attempted, "delivered": delivered,
                  "physical_hops": physical_hops},
        fastpath_stats=fastpath_stats,
        probe_series=probe_series)


def _cell(n_routers: int, seed: int, n_flows: int,
          repeats: int) -> Dict[str, object]:
    fast = run_cell_leg(n_routers, seed, n_flows, repeats, fastpath_on=True)
    slow = run_cell_leg(n_routers, seed, n_flows, repeats, fastpath_on=False)
    identical = _canonical(fast.delivery) == _canonical(slow.delivery)
    return {
        "routers_requested": n_routers,
        "routers_built": fast.routers_built,
        "ases": fast.ases,
        "params": {"flows": n_flows, "repeats": repeats},
        "wall_seconds": {"fastpath": fast.traffic_wall_seconds,
                         "slowpath": slow.traffic_wall_seconds},
        "build_wall_seconds": {"fastpath": fast.build_wall_seconds,
                               "slowpath": slow.build_wall_seconds},
        "speedup": (slow.traffic_wall_seconds
                    / max(fast.traffic_wall_seconds, 1e-9)),
        "fastpath": {key: fast.fastpath_stats[key]
                     for key in ("hits", "misses", "flows",
                                 "packets_aggregated")},
        "delivery": dict(fast.delivery),
        "identical_metrics": identical,
        "measurement": _measurement_entry(fast, slow),
    }


def _measurement_entry(fast: CellLeg, slow: CellLeg) -> Dict[str, object]:
    """The ``measurement`` block: probe totals plus the sample-for-sample
    equivalence bit between the fast-path and slow-path series."""
    samples = fast.probe_series.get("samples")
    rtts = [s["rtt"] for s in samples  # type: ignore[index, union-attr]
            if isinstance(s, dict) and s.get("rtt") is not None]
    return {
        "probes": fast.probe_series.get("probes", 0),
        "delivered": fast.probe_series.get("delivered", 0),
        "rtt_mean": (sum(rtts) / len(rtts)) if rtts else 0.0,  # type: ignore[arg-type]
        "identical_series": (_canonical(fast.probe_series)
                             == _canonical(slow.probe_series)),
    }


def run_sweep(seed: int = DEFAULT_SEED, quick: bool = False,
              sizes: Optional[Sequence[int]] = None) -> Dict[str, object]:
    """Run the whole size axis; returns the ``scale_sweep`` document."""
    if sizes is None:
        sizes = QUICK_SIZES if quick else FULL_SIZES
    n_flows, repeats = QUICK_TRAFFIC if quick else FULL_TRAFFIC
    cells = [_cell(n, seed, n_flows, repeats) for n in sizes]
    return {
        "schema": BENCH_SCHEMA,
        "mode": "scale_sweep",
        "seed": seed,
        "quick": quick,
        "cells": cells,
        "totals": {
            "wall_seconds": {
                "fastpath": sum(c["wall_seconds"]["fastpath"]  # type: ignore[index]
                                for c in cells),
                "slowpath": sum(c["wall_seconds"]["slowpath"]  # type: ignore[index]
                                for c in cells),
            },
            "identical_metrics": all(bool(c["identical_metrics"])
                                     for c in cells),
            "identical_probe_series": all(
                bool(c["measurement"]["identical_series"])  # type: ignore[index]
                for c in cells),
        },
    }
