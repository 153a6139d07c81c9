"""The ``repro.bench`` artifact schema: validation and writing.

``python -m repro bench`` writes a ``repro.bench/v2`` document with
``"mode": "scale_sweep"`` (:mod:`repro.perf.scale_bench`, which
documents that shape).  :func:`validate_bench_dict` also accepts the
committed matrix artifacts (``BENCH_PR4.json`` as ``repro.bench/v1``,
``BENCH_PR6.json`` as v2 ``"mode": "matrix"``), which recorded each
workload cached and uncached::

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

A v1 document is a v2 matrix without ``mode`` or per-workload
``params``.  Caches are no longer optional, so nothing produces new
matrix documents; the cached == uncached check lives on as the test
oracle ``tests/reference/uncached.py``.

Fields prefixed ``wall_`` are the only nondeterministic ones (per the
tracing convention); everything else is a pure function of the seed.
Regression tooling should compare counter fields across
``BENCH_*.json`` files and *plot* wall seconds, never gate on them.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.obs.serialize import json_safe

#: The emitted document's schema tag.
BENCH_SCHEMA = "repro.bench/v2"
#: Legacy schema still accepted by :func:`validate_bench_dict`.
BENCH_SCHEMA_V1 = "repro.bench/v1"
#: The two ``repro.bench/v2`` document modes.
BENCH_MODES = ("matrix", "scale_sweep")
#: Default workload seed.
DEFAULT_SEED = 42


def _canonical(payload: object) -> object:
    """Round-trip through sorted JSON so comparisons are bit-exact."""
    return json.loads(json.dumps(json_safe(payload), sort_keys=True))


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

    Accepts ``repro.bench/v2`` in both modes (``scale_sweep`` from
    :func:`repro.perf.scale_bench.run_sweep`, and the committed
    ``matrix`` artifacts) and legacy ``repro.bench/v1`` documents (a
    v2 matrix without ``mode`` or per-workload ``params``).
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


def write_bench(doc: Dict[str, object], path: str) -> str:
    """Write the document as stable, sorted-key JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
