"""Run one benchmark workload against the simulator in ``src/``.

    python3 simbench/run.py --workload flow_traffic --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload is set up and run again and again for
about ``--seconds`` (at least once, and never starting an iteration
that would end past the budget); the end-to-end metrics are medians
over those iterations.  ``setup_s`` and ``run_s`` are scaled towards a
reference host speed, read between iterations (see :func:`host_speed`),
so that a shared host's slow spells read less as a slower program.
With ``--trace 1`` it runs once untraced and once with every layer
entry point wrapped (see ``tracing.py``), and reports the per-layer
metrics of the traced iteration plus ``trace_overhead_frac``.  Both modes check the outputs; a failed check
is named on stderr and the exit code is 1.

Human-readable lines come first; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: The named hold-out seed: a perf change must also hold on it.
HOLDOUT_SEED = 7919
#: Deterministic per-layer counts recorded per workload and seed.
COUNTS_PATH = os.path.join(HERE, "counts.json")
#: ``setup_s`` is the median of at least this many set-ups per run.
MIN_SETUPS = 5
#: Where traced runs write their spans (relative to the checkout).
TRACE_DIR = os.path.join(os.path.dirname(HERE), ".simbench")
#: Rounds of :func:`host_speed`'s job in one reading (about 0.45 s).
JOB_ROUNDS = 12
#: Seconds one round of that job typically takes on the reference host
#: (a 2-vCPU x86 VM); ``setup_s`` and ``run_s`` are scaled towards it.
REFERENCE_JOB_S = 0.0375


def _load_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"simbench: no simulator sources under {SRC}\n")
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]


def host_speed() -> float:
    """Seconds per round of a fixed pure-Python job on this host now.

    The job is shaped like the simulator's inner loops (a heap of
    events, a dict keyed by tuples, small containers, a sort) and runs
    with the cyclic GC off, so it reads the host's speed and not the
    size of the live heap.  It runs before the first iteration and
    after each one; an iteration's timings are multiplied by the square
    root of ``REFERENCE_JOB_S`` over the mean of the readings on either
    side.
    """
    rng = random.Random(0)
    gc.disable()
    t0 = time.perf_counter()
    try:
        for _ in range(JOB_ROUNDS):
            heap = [(rng.random(), i) for i in range(20000)]
            heapq.heapify(heap)
            table: Dict[tuple, tuple] = {}
            while heap:
                t, i = heapq.heappop(heap)
                key = (i % 997, i % 31)
                best = table.get(key)
                if best is None or best[0] > t:
                    table[key] = (t, i, [i, i + 1])
            sorted(table.values())
        return (time.perf_counter() - t0) / JOB_ROUNDS
    finally:
        gc.enable()


def iterate(cls, seed: int, tracer=None):
    """One fresh workload: set up, make inputs, run; returns timings."""
    from tracing import traced

    workload = cls(seed, tracer=tracer)
    with traced(tracer):
        t0 = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - t0
        workload.make_inputs()
        t0 = time.perf_counter()
        workload.run()
        run_s = time.perf_counter() - t0
    workload.run_s = run_s
    workload.after_run()
    return workload, setup_s, run_s


class Outcome:
    """What a run keeps of its first iteration once the network is freed."""

    def __init__(self, workload) -> None:
        self.failed_checks = workload.checks()
        self.digest = workload.digest()
        self.attempted = workload.attempted
        self.failed = workload.failed
        self.fail_attempted = workload.fail_attempted
        self.fail_count = workload.fail_count
        self.extra = dict(workload.extra)


def timed_runs(cls, seed: int, seconds: float):
    """Iterate until *seconds* pass; medians of per-iteration figures."""
    # (wall seconds, host-speed-scaled seconds) of every set-up and run.
    setups: List[Tuple[float, float]] = []
    runs: List[Tuple[float, float]] = []
    extras: Dict[str, List[float]] = {}
    host_speed()  # warm-up: a fresh process reads slow at first
    readings = [host_speed()]

    def scale() -> float:
        """Scaled seconds per wall second since the previous reading.

        A reading varies about as much from one second to the next as
        the host's slow spells move the program, so the correction is
        applied at half strength (a square root): in logged runs that
        steadied medians both in calm and in drifting spells, where full
        strength added noise in calm ones and none left drift in.
        """
        gc.collect()
        readings.append(host_speed())
        return math.sqrt(REFERENCE_JOB_S / statistics.mean(readings[-2:]))

    start = time.perf_counter()
    first = None
    while True:
        began = time.perf_counter()
        workload, setup_s, run_s = iterate(cls, seed)
        for name, (value, _, _) in workload.extra.items():
            extras.setdefault(name, []).append(value)
        if first is None:
            first = Outcome(workload)
        del workload
        factor = scale()
        setups.append((setup_s, setup_s * factor))
        runs.append((run_s, run_s * factor))
        # Stop before an iteration that would end past the budget.
        now = time.perf_counter()
        if now + (now - began) > start + seconds:
            break
    while len(setups) < MIN_SETUPS:
        extra = cls(seed)
        t0 = time.perf_counter()
        extra.setup()
        wall = time.perf_counter() - t0
        del extra
        setups.append((wall, wall * scale()))

    def median(pairs: List[Tuple[float, float]], index: int) -> float:
        return statistics.median(pair[index] for pair in pairs)

    summary = {
        "setup_s": (median(setups, 1), "s", len(setups)),
        "run_s": (median(runs, 1), "s", len(runs)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB", 1),
    }
    # Per-operation latencies are wall-clock figures and swing with how
    # much of a run a shared host spends slowed by other tenants, so they
    # are reported beside the bounded metrics rather than among them.
    report = {
        "host_job_s": (statistics.median(readings), "s", len(readings)),
        "wall_setup_s": (median(setups, 0), "s", len(setups)),
        "wall_run_s": (median(runs, 0), "s", len(runs)),
        "fail_frac": (first.fail_count / max(first.fail_attempted, 1),
                      f"{first.fail_count}/{first.fail_attempted}",
                      first.fail_attempted),
    }
    for name, values in extras.items():
        _, unit, samples = first.extra[name]
        report[name] = (statistics.median(values), unit, samples)
    return first, summary, report


def traced_runs(cls, seed: int, workload_name: str):
    """One untraced and one traced iteration: per-layer metrics."""
    from layers import layer_metrics
    from tracing import Tracer

    untraced, _, run_plain = iterate(cls, seed)
    first = Outcome(untraced)
    del untraced
    gc.collect()
    run_id = f"{workload_name}-seed{seed}-{os.getpid()}"
    tracer = Tracer(run_id)
    workload, _, run_traced = iterate(cls, seed, tracer=tracer)
    values = layer_metrics(workload, tracer)
    values["trace_overhead_frac"] = (run_traced - run_plain) / run_plain
    if workload.digest() != first.digest:
        first.failed_checks.append("trace.outputs_unchanged_by_tracing")
    if workload_name == "fault_churn" and values["fastpath.hits"] != 0:
        first.failed_checks.append("fault_churn.fastpath_paused")
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.dump(os.path.join(TRACE_DIR, f"spans-{workload_name}-{seed}.json"))
    return first, values


def count_drift(workload_name: str, seed: int,
                values: Dict[str, float]) -> List[str]:
    """Counts that differ from the recorded snapshot for this seed."""
    from layers import is_count

    try:
        with open(COUNTS_PATH, encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except FileNotFoundError:
        return []
    recorded = snapshot.get(workload_name, {}).get(str(seed))
    if recorded is None:
        return []
    return [f"{name}: recorded {recorded.get(name)} now {values[name]}"
            for name in sorted(values)
            if is_count(name) and recorded.get(name) != values[name]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from layers import LAYERS, UNITS, not_applicable
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    if args.trace:
        outcome, values = traced_runs(cls, args.seed, args.workload)
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in values.items()}
        absent = not_applicable(values)
        for layer, layer_metrics_ in LAYERS.items():
            shown = ", ".join(
                f"{name}={values[name]:.6g}" for name, _, _ in layer_metrics_)
            print(f"  {layer:<12} {'n/a' if layer in absent else shown}")
        print(f"  trace_overhead_frac={values['trace_overhead_frac']:.4f}")
        for line in count_drift(args.workload, args.seed, values):
            print(f"  COUNT DRIFT {line}")
            sys.stderr.write(f"simbench: count drift: {line}\n")
    else:
        outcome, summary, report = timed_runs(cls, args.seed, args.seconds)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in summary.items()}
        for name, (value, unit, samples) in {**summary, **report}.items():
            print(f"  {name:<16} {value:>14.6g} {unit:<8} n={samples}")
    print(f"  digest={outcome.digest}")
    for name in outcome.failed_checks:
        print(f"  CHECK FAILED {name}")
        sys.stderr.write(f"simbench: check failed: {name}\n")
    result = {"correct": not outcome.failed_checks,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 1 if outcome.failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
