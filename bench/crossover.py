#!/usr/bin/env python3
"""One-off crossover sweep: aggregated pipeline wall vs monolithic wall.

    python3 bench/crossover.py

Runs ``run_pipeline(..., benchmark=True)`` in transshipment mode on one
seeded instance (seed ``SEED``, ``STEPS`` time steps) per node count in
``NODES`` and prints the pipeline's phase walls next to
the monolithic solve's, so the node count where aggregation starts to win
(if any) can be read off.  Ungated, and slow at 40 nodes (minutes with the
bundled solver); the table also goes to ``bench/out/crossover.json``
with an environment stamp.
"""

from __future__ import annotations

import json
import sys
import time

import run as bench_run

sys.path.insert(0, str(bench_run.SRC))

import workloads as wl  # noqa: E402
from sparta.model import TRANSSHIPMENT  # noqa: E402

SEED = 0
STEPS = 24
NODES = (8, 16, 24, 40)


def main() -> int:
    rows = []
    print("| nodes | k_final | bound iters | pipeline s | monolithic s | pipeline/monolithic | check |")
    print("|---|---|---|---|---|---|---|")
    for n in NODES:
        workload = wl.Workload(f"crossover-{n}", wl.COMPARE, TRANSSHIPMENT, n, STEPS)
        [(seed, instance)] = wl.make_corpus(workload, SEED, 1)
        t0 = time.perf_counter()
        result = workload.call()(instance)
        wall = time.perf_counter() - t0
        rep = result.report
        try:
            wl.check(workload, result)
            wl.check_highs(instance, rep.tac_full)
            status = "passed"
        except wl.CheckViolation as exc:
            status = f"violated: {exc}"
        row = {"nodes": n, "steps": STEPS, "seed": seed, "k_final": rep.k_final,
               "iterations": rep.iterations, "pipeline_s": rep.wall_sparta_s,
               "monolithic_s": rep.wall_full_s, "ratio": rep.wall_sparta_s / rep.wall_full_s,
               "call_s": wall, "bounds_s": rep.wall_bounds_s,
               "redesign_s": rep.wall_redesign_s, "check_s": rep.wall_check_s,
               "network_s": rep.wall_network_s, "epsilon_final": rep.epsilon_final,
               "check": status}
        rows.append(row)
        print(f"| {n} | {rep.k_final} | {rep.iterations} | {rep.wall_sparta_s:.1f} | "
              f"{rep.wall_full_s:.1f} | {row['ratio']:.2f} | {status} |", flush=True)

    out = bench_run.OUT / "crossover.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"environment": bench_run.stamp(), "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
