"""Per-layer metrics of a traced run, named after the ``repro`` modules.

Counts are deterministic for a workload and seed; times are self time
in seconds (see :mod:`tracing`).  Everything is measured over the timed
phase only, except ``topogen.*``, which is the set-up's generation.  A
layer whose counts are all zero on a workload did no work there and is
reported as not applicable (its metrics read 0).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracing import Tracer
from workloads import Workload

#: (metric, unit, better) for every per-layer metric, grouped by layer.
LAYERS: Dict[str, List[Tuple[str, str, str]]] = {
    "topogen": [("topogen.s", "s", "lower"),
                ("topogen.nodes", "count", "higher"),
                ("topogen.links", "count", "higher")],
    "simulator": [("simulator.events", "count", "lower"),
                  ("simulator.queue_peak", "count", "lower"),
                  ("simulator.self_s", "s", "lower")],
    "routing": [("routing.messages", "count", "lower"),
                ("routing.msg_s", "s", "lower"),
                ("routing.install_calls", "count", "lower"),
                ("routing.install_s", "s", "lower")],
    "bgp": [("bgp.messages", "count", "lower"),
            ("bgp.msg_s", "s", "lower"),
            ("bgp.install_s", "s", "lower"),
            ("bgp.install_fib_lookups", "count", "lower"),
            ("bgp.resync_s", "s", "lower")],
    "fib": [("fib.installs", "count", "lower"),
            ("fib.withdraws", "count", "lower"),
            ("fib.write_s", "s", "lower"),
            ("fib.lookups", "count", "lower"),
            ("fib.lookup_s", "s", "lower"),
            ("fib.entries", "count", "lower")],
    "forwarding": [("forwarding.packets", "count", "higher"),
                   ("forwarding.hops", "count", "lower"),
                   ("forwarding.self_s", "s", "lower")],
    "fastpath": [("fastpath.hits", "count", "higher"),
                 ("fastpath.misses", "count", "lower"),
                 ("fastpath.hit_ratio", "ratio", "higher"),
                 ("fastpath.invalidations", "count", "lower"),
                 ("fastpath.lookup_s", "s", "lower")],
    "vnbone": [("vnbone.rebuilds", "count", "lower"),
               ("vnbone.rebuild_s", "s", "lower"),
               ("vnbone.sends", "count", "higher"),
               ("vnbone.handler_calls", "count", "lower"),
               ("vnbone.handler_s", "s", "lower")],
    "faults": [("faults.epochs", "count", "higher"),
               ("faults.reconverge_events", "count", "lower"),
               ("faults.sim_reconverge_t", "sim_t", "lower")],
    "measure": [("measure.probes", "count", "higher"),
                ("measure.lost", "count", "lower"),
                ("measure.probe_s", "s", "lower"),
                ("measure.oracle_s", "s", "lower"),
                ("measure.oracle_trees", "count", "lower")],
    "analyze": [("analyze.catchment_s", "s", "lower")],
    "orchestrator": [("orchestrator.converge_s", "s", "lower"),
                     ("orchestrator.install_s", "s", "lower")],
}

#: The traced run's own cost, reported beside the layers.
OVERHEAD = ("trace_overhead_frac", "frac", "lower")

UNITS = {name: unit for metrics in LAYERS.values()
         for name, unit, _ in metrics}
UNITS[OVERHEAD[0]] = OVERHEAD[1]


def is_count(name: str) -> bool:
    """Whether *name* is a deterministic count (the drift snapshot's keys)."""
    return UNITS[name] in ("count", "sim_t")


def layer_metrics(workload: Workload, tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric of one traced workload iteration."""
    setup = tracer.summary()
    spans = tracer.summary(since=workload.run_mark)

    def calls(*names: str) -> int:
        return sum(spans.get(name, (0, 0.0))[0] for name in names)

    def self_s(*names: str) -> float:
        return sum(spans.get(name, (0, 0.0))[1] for name in names)

    network = workload.network
    assert network is not None
    delta = {key: workload.after[key] - workload.before[key]
             for key in workload.before}
    hits, misses = delta["fastpath.hits"], delta["fastpath.misses"]
    epochs = getattr(workload, "epochs", [])
    samples = getattr(workload, "samples", [])
    values: Dict[str, float] = {
        "topogen.s": setup.get("topogen.generate", (0, 0.0))[1],
        "topogen.nodes": len(network.nodes),
        "topogen.links": len(network.links),
        "simulator.events": calls("routing.msg", "bgp.msg",
                                  "simulator.callback"),
        "simulator.queue_peak": tracer.queue_peak,
        "simulator.self_s": self_s("simulator.run"),
        "routing.messages": delta["routing.messages"],
        "routing.msg_s": self_s("routing.msg"),
        "routing.install_calls": calls("routing.install"),
        "routing.install_s": self_s("routing.install"),
        "bgp.messages": delta["bgp.messages"],
        "bgp.msg_s": self_s("bgp.msg"),
        "bgp.install_s": self_s("bgp.install"),
        "bgp.install_fib_lookups": delta["bgp.install_fib_lookups"],
        "bgp.resync_s": self_s("bgp.resync"),
        "fib.installs": calls("fib.install"),
        "fib.withdraws": calls("fib.withdraw"),
        "fib.write_s": self_s("fib.install", "fib.withdraw", "fib.withdraw_all"),
        "fib.lookups": calls("fib.lookup"),
        "fib.lookup_s": self_s("fib.lookup"),
        "fib.entries": workload.after["fib.entries"],
        "forwarding.packets": calls("forwarding.forward"),
        "forwarding.hops": tracer.hops,
        "forwarding.self_s": self_s("forwarding.forward"),
        "fastpath.hits": hits,
        "fastpath.misses": misses,
        "fastpath.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "fastpath.invalidations": delta["fastpath.invalidations"],
        "fastpath.lookup_s": self_s("fastpath.lookup", "fastpath.store"),
        "vnbone.rebuilds": calls("vnbone.rebuild"),
        "vnbone.rebuild_s": self_s("vnbone.rebuild"),
        "vnbone.sends": calls("vnbone.send"),
        "vnbone.handler_calls": calls("vnbone.handler"),
        "vnbone.handler_s": self_s("vnbone.handler"),
        "faults.epochs": len(epochs),
        "faults.reconverge_events": sum(e.events_processed for e in epochs),
        "faults.sim_reconverge_t": sum(e.reconvergence_time or 0.0
                                       for e in epochs),
        "measure.probes": len(samples),
        "measure.lost": sum(1 for s in samples if not s.delivered),
        "measure.probe_s": self_s("measure.probe"),
        "measure.oracle_s": self_s("measure.oracle", "measure.oracle_tree"),
        "measure.oracle_trees": calls("measure.oracle_tree"),
        "analyze.catchment_s": self_s("analyze.catchment"),
        "orchestrator.converge_s": self_s("orchestrator.converge"),
        "orchestrator.install_s": self_s("orchestrator.install"),
    }
    return values


def not_applicable(values: Dict[str, float]) -> List[str]:
    """Layers that did no work: every count and time of theirs is 0."""
    return [layer for layer, metrics in LAYERS.items()
            if all(values[name] == 0 for name, _, _ in metrics)]
