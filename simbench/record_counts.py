"""Record the deterministic per-layer counts into ``counts.json``.

    python3 simbench/record_counts.py

Runs one traced iteration of every workload for seeds 1-10 and the
hold-out seed, keeps the metrics whose unit is a count (or simulated
time), and rewrites ``counts.json`` whole.  Traced runs of ``run.py``
compare against this file and flag any count that moved.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = list(range(1, 11)) + [run.HOLDOUT_SEED]


def main() -> int:
    run._load_program()
    from layers import is_count, layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    snapshot: dict = {}
    for name, cls in WORKLOADS.items():
        for seed in SEEDS:
            tracer = Tracer(f"{name}-seed{seed}")
            workload, _, _ = run.iterate(cls, seed, tracer=tracer)
            values = layer_metrics(workload, tracer)
            snapshot.setdefault(name, {})[str(seed)] = {
                key: value for key, value in sorted(values.items())
                if is_count(key)}
            print(f"{name} seed={seed} recorded", flush=True)
    with open(run.COUNTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
