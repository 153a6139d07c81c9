"""The reproducible perf-trajectory harness (``python -m repro bench``).

Runs a fixed, seeded workload matrix — initial convergence, a staged
reachability sweep, a fault epoch, and a multicast fanout — **twice**
per workload: once with the path/SPF caches enabled and once with the
uncached baseline (:func:`repro.perf.caching`).  Each leg executes
under its own :class:`~repro.obs.Observability` handle, so the emitted
document carries per-leg wall seconds, Dijkstra/SPF run counts, and
cache hit rates, plus the correctness bit that matters most:
``identical_metrics`` — the canonical JSON form of each workload's
experiment output must be bit-identical between the two legs.

The output schema is ``repro.bench/v2`` with ``"mode": "matrix"``::

    {
      "schema": "repro.bench/v2",
      "mode": "matrix",
      "seed": 42,
      "quick": false,
      "workloads": {
        "<name>": {
          "params": {"n_tier1": int, ..., "sample": int, ...},
          "wall_seconds":  {"cached": float, "uncached": float},
          "dijkstra_runs": {"cached": int,   "uncached": int},
          "spf_runs":      {"cached": int,   "uncached": int},
          "path_cache": {"hits": int, "misses": int,
                          "invalidations": int, "hit_rate": float},
          "spf_cache":  {"hits": int, "hit_rate": float},
          "identical_metrics": bool
        }, ...
      },
      "totals": {"dijkstra_runs": {"cached": int, "uncached": int},
                  "wall_seconds":  {"cached": float, "uncached": float},
                  "identical_metrics": bool}
    }

``params`` stamps the resolved topology dimensions and workload sizing
knobs into each entry, so a ``--quick`` artifact is self-describing
and never silently compared against a full-size run.  The other
``repro.bench/v2`` mode is ``"scale_sweep"``
(:mod:`repro.perf.scale_bench`); :func:`validate_bench_dict` handles
both, plus legacy ``repro.bench/v1`` documents.

``wall_seconds`` is the only nondeterministic field (hence the
``wall_`` prefix, per the tracing convention); everything else is a
pure function of the seed.  Regression tooling should compare counter
fields across ``BENCH_*.json`` files and *plot* wall seconds, never
gate on them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.evolution import EvolvableInternet
from repro.experiments.base import (ExperimentResult, Param, WorkloadSpec,
                                    all_specs, register)
from repro.faults.plan import FaultPlan
from repro.faults.injector import FaultInjector
from repro.net.errors import ReproError
from repro.obs import Observability, observing
from repro.obs.serialize import json_safe
from repro.perf.cache import caching
from repro.topogen.hierarchy import InternetSpec
from repro.vnbone.multicast import enable_multicast

#: The emitted document's schema tag.
BENCH_SCHEMA = "repro.bench/v2"
#: Legacy schema still accepted by :func:`validate_bench_dict`.
BENCH_SCHEMA_V1 = "repro.bench/v1"
#: The two ``repro.bench/v2`` document modes.
BENCH_MODES = ("matrix", "scale_sweep")
#: Default output path (PR-stamped so the repo accumulates a trajectory).
DEFAULT_BENCH_PATH = "BENCH_PR6.json"
#: Default workload seed.
DEFAULT_SEED = 42

#: A workload builds a scenario from scratch and returns its JSON-safe
#: experiment payload.  It must be a pure function of (seed, quick).
WorkloadFn = Callable[[int, bool], object]


#: Per-workload sizing knobs, quick vs. full.  Workloads read their
#: sizes here and :func:`workload_params` stamps the resolved values
#: into each emitted entry — the artifact records what actually ran,
#: not just a shared workload name (a ``--quick`` document used to be
#: indistinguishable from a full one below the top-level flag).
WORKLOAD_SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "converge": {"quick": {}, "full": {}},
    "reachability_sweep": {"quick": {"sample": 30, "adoption_stages": 2},
                           "full": {"sample": 120, "adoption_stages": 4}},
    "fault_epoch": {"quick": {"sample": 20}, "full": {"sample": 60}},
    "multicast_fanout": {"quick": {"receivers": 4}, "full": {"receivers": 8}},
}


def _sizes(name: str, quick: bool) -> Dict[str, int]:
    return WORKLOAD_SIZES[name]["quick" if quick else "full"]


def workload_params(name: str, seed: int, quick: bool) -> Dict[str, int]:
    """The resolved sizing of one workload run: topology dimensions
    plus the workload's own knobs from :data:`WORKLOAD_SIZES`."""
    spec = _spec(seed, quick)
    params = {"n_tier1": spec.n_tier1, "n_tier2": spec.n_tier2,
              "n_stub": spec.n_stub}
    params.update(_sizes(name, quick))
    return params


def _spec(seed: int, quick: bool) -> InternetSpec:
    """The benchmark topology: fixed shape, seeded wiring."""
    if quick:
        return InternetSpec(n_tier1=2, n_tier2=3, n_stub=5, seed=seed)
    return InternetSpec(seed=seed)


def _deployed_internet(seed: int, quick: bool
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


# -- the workload matrix ----------------------------------------------------
def workload_converge(seed: int, quick: bool) -> object:
    """Build + converge + deploy + rebuild; payload is the topology
    summary, the adopter map, and control-plane message totals."""
    internet, _deployment = _deployed_internet(seed, quick)
    return {"describe": internet.describe(),
            "message_totals": internet.orchestrator.message_totals()}


def workload_reachability_sweep(seed: int, quick: bool) -> object:
    """Staged adoption sweep, measuring IPv8 reachability per stage."""
    sizes = _sizes("reachability_sweep", quick)
    sample = sizes["sample"]
    internet, deployment = _deployed_internet(seed, quick)
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
    internet, deployment = _deployed_internet(seed, quick)
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
    internet, deployment = _deployed_internet(seed, quick)
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


#: Ordered (name, workload) matrix; order is part of the schema.
WORKLOADS: List[Tuple[str, WorkloadFn]] = [
    ("converge", workload_converge),
    ("reachability_sweep", workload_reachability_sweep),
    ("fault_epoch", workload_fault_epoch),
    ("multicast_fanout", workload_multicast_fanout),
]

#: Registry id prefix for the bench workloads.
BENCH_ID_PREFIX = "bench_"


def _make_bench_runner(
        name: str, fn: WorkloadFn
) -> Callable[[int, Optional[Dict[str, object]]], ExperimentResult]:
    """Wrap a raw workload as a registered ``runner(seed, params)``."""

    def runner(seed: int = DEFAULT_SEED,
               params: Optional[Dict[str, object]] = None
               ) -> ExperimentResult:
        quick = bool(dict(params or {}).get("quick", False))
        payload = _canonical(fn(seed, quick))
        resolved = workload_params(name, seed, quick)
        header = f"{'param':>18} {'value':>8}"
        rows = [f"{key:>18} {value:>8}"
                for key, value in sorted(resolved.items())]
        return ExperimentResult(
            experiment_id=f"{BENCH_ID_PREFIX}{name}",
            title=f"perf bench workload: {name}",
            header=header, rows=rows, data=payload,
            footer="payload is a pure function of (seed, quick)",
            seed=seed, params={"quick": quick})

    return runner


def _register_bench_workloads() -> None:
    """Expose the matrix through the workload-spec registry, so the
    fleet, the CLI, and ``run_bench`` all enumerate it from one surface."""
    for name, fn in WORKLOADS:
        register(f"{BENCH_ID_PREFIX}{name}",
                 f"perf bench workload: {name} (payload is a pure "
                 "function of seed/quick)",
                 params={"quick": Param("bool", False,
                                        "small topology / fewer samples")},
                 tags=("bench",))(_make_bench_runner(name, fn))


_register_bench_workloads()


def bench_specs() -> List[Tuple[str, WorkloadSpec]]:
    """The bench matrix as ``(name, spec)`` pairs, enumerated from the
    registry in the canonical :data:`WORKLOADS` order."""
    order = {name: index for index, (name, _) in enumerate(WORKLOADS)}
    entries = [(spec.workload_id[len(BENCH_ID_PREFIX):], spec)
               for spec in all_specs() if "bench" in spec.tags]
    entries.sort(key=lambda item: (order.get(item[0], len(order)), item[0]))
    return entries


def _spec_workload(spec: WorkloadSpec) -> WorkloadFn:
    """Adapt a registered bench spec back to the ``(seed, quick)`` leg
    shape; the call path validates params against the spec's schema."""

    def fn(seed: int, quick: bool) -> object:
        return spec.call(seed=seed, params={"quick": quick}).data

    return fn


# -- leg execution ----------------------------------------------------------
@dataclass
class LegResult:
    """One cached or uncached execution of one workload."""

    payload: object
    wall_seconds: float
    counters: Dict[str, int]

    def counter(self, name: str) -> int:
        value = self.counters.get(name, 0)
        return int(value) if isinstance(value, (int, float)) else 0


def _canonical(payload: object) -> object:
    """Round-trip through sorted JSON so leg comparison is bit-exact."""
    return json.loads(json.dumps(json_safe(payload), sort_keys=True))


def run_leg(workload: WorkloadFn, seed: int, quick: bool,
            cached: bool) -> LegResult:
    """Run one workload leg under a fresh observability handle."""
    obs = Observability()
    with caching(cached):
        with observing(obs):
            wall_t0 = time.perf_counter()
            payload = workload(seed, quick)
            wall_elapsed = time.perf_counter() - wall_t0
    counters = obs.metrics_summary()["counters"]
    if not isinstance(counters, dict):  # pragma: no cover - registry contract
        raise ReproError("registry snapshot has no counters mapping")
    return LegResult(payload=_canonical(payload), wall_seconds=wall_elapsed,
                     counters=dict(counters))


def _rate(hits: int, total: int) -> float:
    return hits / total if total > 0 else 0.0


def _workload_entry(cached: LegResult,
                    uncached: LegResult) -> Dict[str, object]:
    path_hits = cached.counter("perf.path_cache.hits")
    path_misses = cached.counter("perf.path_cache.misses")
    spf_hits = (cached.counter("igp.ls.spf_cache_hits")
                + cached.counter("vnbone.spf_cache_hits"))
    spf_runs_cached = cached.counter("igp.ls.spf_runs")
    return {
        "wall_seconds": {"cached": cached.wall_seconds,
                         "uncached": uncached.wall_seconds},
        "dijkstra_runs": {"cached": cached.counter("perf.dijkstra_runs"),
                          "uncached": uncached.counter("perf.dijkstra_runs")},
        "spf_runs": {"cached": spf_runs_cached,
                     "uncached": uncached.counter("igp.ls.spf_runs")},
        "path_cache": {"hits": path_hits, "misses": path_misses,
                       "invalidations":
                           cached.counter("perf.path_cache.invalidations"),
                       "hit_rate": _rate(path_hits, path_hits + path_misses)},
        "spf_cache": {"hits": spf_hits,
                      "hit_rate": _rate(spf_hits, spf_hits + spf_runs_cached)},
        "identical_metrics": cached.payload == uncached.payload,
    }


def run_bench(seed: int = DEFAULT_SEED, quick: bool = False
              ) -> Dict[str, object]:
    """Run the whole matrix; returns the ``repro.bench/v1`` document."""
    workloads: Dict[str, Dict[str, object]] = {}
    total_cached = total_uncached = 0
    wall_total_cached = wall_total_uncached = 0.0
    all_identical = True
    for name, spec in bench_specs():
        workload = _spec_workload(spec)
        cached_leg = run_leg(workload, seed, quick, cached=True)
        uncached_leg = run_leg(workload, seed, quick, cached=False)
        entry = _workload_entry(cached_leg, uncached_leg)
        entry["params"] = workload_params(name, seed, quick)
        workloads[name] = entry
        total_cached += cached_leg.counter("perf.dijkstra_runs")
        total_uncached += uncached_leg.counter("perf.dijkstra_runs")
        wall_total_cached += cached_leg.wall_seconds
        wall_total_uncached += uncached_leg.wall_seconds
        all_identical = all_identical and bool(entry["identical_metrics"])
    return {
        "schema": BENCH_SCHEMA,
        "mode": "matrix",
        "seed": seed,
        "quick": quick,
        "workloads": workloads,
        "totals": {
            "dijkstra_runs": {"cached": total_cached,
                              "uncached": total_uncached},
            "wall_seconds": {"cached": wall_total_cached,
                             "uncached": wall_total_uncached},
            "identical_metrics": all_identical,
        },
    }


# -- schema validation ------------------------------------------------------
_PAIR_KEYS = ("cached", "uncached")


def _check_pair(errors: List[str], where: str, value: object,
                kind: type, keys: Tuple[str, ...] = _PAIR_KEYS) -> None:
    if not isinstance(value, dict):
        errors.append(f"{where}: expected object, got {type(value).__name__}")
        return
    accepted = (int, float) if kind is float else (kind,)
    for key in keys:
        if key not in value:
            errors.append(f"{where}.{key}: missing")
        elif not isinstance(value[key], accepted) or isinstance(value[key], bool):
            errors.append(f"{where}.{key}: expected {kind.__name__}")


def validate_bench_dict(doc: object) -> List[str]:
    """Validate a bench document; returns error strings.

    Accepts ``repro.bench/v2`` in both modes (``matrix`` from
    :func:`run_bench`, ``scale_sweep`` from
    :func:`repro.perf.scale_bench.run_sweep`) and legacy
    ``repro.bench/v1`` documents (a v2 matrix without ``mode`` or
    per-workload ``params``).
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"document: expected object, got {type(doc).__name__}"]
    schema = doc.get("schema")
    if schema not in (BENCH_SCHEMA, BENCH_SCHEMA_V1):
        return [f"schema: expected {BENCH_SCHEMA!r} or {BENCH_SCHEMA_V1!r}, "
                f"got {schema!r}"]
    if not isinstance(doc.get("seed"), int):
        errors.append("seed: expected int")
    if not isinstance(doc.get("quick"), bool):
        errors.append("quick: expected bool")
    if schema == BENCH_SCHEMA_V1:
        _validate_matrix(errors, doc, require_params=False)
        return errors
    mode = doc.get("mode")
    if mode not in BENCH_MODES:
        errors.append(f"mode: expected one of {BENCH_MODES}, got {mode!r}")
        return errors
    if mode == "matrix":
        _validate_matrix(errors, doc, require_params=True)
    else:
        _validate_sweep(errors, doc)
    return errors


def _validate_matrix(errors: List[str], doc: Dict[str, object],
                     require_params: bool) -> None:
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        errors.append("workloads: expected non-empty object")
        workloads = {}
    for name, entry in sorted(workloads.items()):
        where = f"workloads.{name}"
        if not isinstance(entry, dict):
            errors.append(f"{where}: expected object")
            continue
        _check_pair(errors, f"{where}.wall_seconds",
                    entry.get("wall_seconds"), float)
        _check_pair(errors, f"{where}.dijkstra_runs",
                    entry.get("dijkstra_runs"), int)
        _check_pair(errors, f"{where}.spf_runs", entry.get("spf_runs"), int)
        for cache_key, fields in (("path_cache", ("hits", "misses",
                                                  "invalidations")),
                                  ("spf_cache", ("hits",))):
            cache = entry.get(cache_key)
            if not isinstance(cache, dict):
                errors.append(f"{where}.{cache_key}: expected object")
                continue
            for field_name in fields:
                if not isinstance(cache.get(field_name), int):
                    errors.append(
                        f"{where}.{cache_key}.{field_name}: expected int")
            hit_rate = cache.get("hit_rate")
            if (not isinstance(hit_rate, (int, float))
                    or isinstance(hit_rate, bool)
                    or not 0.0 <= float(hit_rate) <= 1.0):
                errors.append(
                    f"{where}.{cache_key}.hit_rate: expected number in [0, 1]")
        if not isinstance(entry.get("identical_metrics"), bool):
            errors.append(f"{where}.identical_metrics: expected bool")
        if require_params:
            params = entry.get("params")
            if not isinstance(params, dict):
                errors.append(f"{where}.params: expected object")
            elif not all(isinstance(value, int) and not isinstance(value, bool)
                         for value in params.values()):
                errors.append(f"{where}.params: expected int values")
    totals = doc.get("totals")
    if not isinstance(totals, dict):
        errors.append("totals: expected object")
    else:
        _check_pair(errors, "totals.dijkstra_runs",
                    totals.get("dijkstra_runs"), int)
        _check_pair(errors, "totals.wall_seconds",
                    totals.get("wall_seconds"), float)
        if not isinstance(totals.get("identical_metrics"), bool):
            errors.append("totals.identical_metrics: expected bool")


_LEG_KEYS = ("fastpath", "slowpath")


def _validate_sweep(errors: List[str], doc: Dict[str, object]) -> None:
    """Checks for ``mode: "scale_sweep"`` (see :mod:`repro.perf.scale_bench`)."""
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append("cells: expected non-empty array")
        cells = []
    for index, cell in enumerate(cells):
        where = f"cells[{index}]"
        if not isinstance(cell, dict):
            errors.append(f"{where}: expected object")
            continue
        for field_name in ("routers_requested", "routers_built", "ases"):
            value = cell.get(field_name)
            if not isinstance(value, int) or isinstance(value, bool):
                errors.append(f"{where}.{field_name}: expected int")
        _check_pair(errors, f"{where}.wall_seconds",
                    cell.get("wall_seconds"), float, keys=_LEG_KEYS)
        speedup = cell.get("speedup")
        if (not isinstance(speedup, (int, float)) or isinstance(speedup, bool)
                or float(speedup) < 0.0):
            errors.append(f"{where}.speedup: expected non-negative number")
        params = cell.get("params")
        if not isinstance(params, dict) or not all(
                isinstance(value, int) and not isinstance(value, bool)
                for value in params.values()):
            errors.append(f"{where}.params: expected object of ints")
        fastpath = cell.get("fastpath")
        if not isinstance(fastpath, dict):
            errors.append(f"{where}.fastpath: expected object")
        else:
            for field_name in ("hits", "misses", "flows",
                               "packets_aggregated"):
                value = fastpath.get(field_name)
                if not isinstance(value, int) or isinstance(value, bool):
                    errors.append(
                        f"{where}.fastpath.{field_name}: expected int")
        delivery = cell.get("delivery")
        if not isinstance(delivery, dict):
            errors.append(f"{where}.delivery: expected object")
        else:
            for field_name in ("attempted", "delivered"):
                value = delivery.get(field_name)
                if not isinstance(value, int) or isinstance(value, bool):
                    errors.append(
                        f"{where}.delivery.{field_name}: expected int")
        if not isinstance(cell.get("identical_metrics"), bool):
            errors.append(f"{where}.identical_metrics: expected bool")
    totals = doc.get("totals")
    if not isinstance(totals, dict):
        errors.append("totals: expected object")
    else:
        _check_pair(errors, "totals.wall_seconds",
                    totals.get("wall_seconds"), float, keys=_LEG_KEYS)
        if not isinstance(totals.get("identical_metrics"), bool):
            errors.append("totals.identical_metrics: expected bool")


def write_bench(doc: Dict[str, object],
                path: str = DEFAULT_BENCH_PATH) -> str:
    """Write the document as stable, sorted-key JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
