#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

Checks three things and exits non-zero if any fails:

1. every workload emits every metric ``BENCHMARK.json`` names, with its
   unit, in both modes, and prints the six end-to-end figures;
2. solver and loop counts, ``failed_share`` and ``epsilon_final.mean``
   repeat exactly across two runs on the same seed;
3. the smallest known-failing DC instance (seed 1, 12 nodes, 8 steps) is
   counted as failed, with its seed, error type and phase-prefixed message
   kept in the result artifact, not dropped;
4. the tracer keeps every span's parent and interval straight when more
   threads than cores open spans at once.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out" / "smoke"

TINY = ["--instances", "2", "--nodes", "4", "--steps", "4"]
EXACT_LAYER = ("simplex.iterations", "driver.iterations", "driver.k_final")
EXACT_E2E = ("failed_share", "epsilon_final.mean")
PRINTED = ("setup_s", "solved_per_min", "cost_per_solved", "instance_s.p50", "failed_share",
           "peak_rss_mb")
#: defined in workloads.py and runnable by hand, but not in BENCHMARK.json
UNGATED_WORKLOADS = ("pipeline-ts", "compare-dc")


def run(workload: str, seed: int, trace: int, tag: str, extra: list[str]) -> tuple[dict, dict, str]:
    out = OUT / f"{workload}_{tag}.json"
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(out), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, json.loads(out.read_text()), done.stdout


def tracer_stress(threads: int = 8, spans: int = 2000) -> list[str]:
    """Open and close nested spans from many threads with a tiny switch interval."""
    tracer = Tracer()
    tracer.instance = 0
    root = tracer.open("instance", root=True)
    interval = sys.getswitchinterval()

    def work(t: int) -> None:
        for _ in range(spans):
            outer = tracer.open(f"outer-{t}")
            tracer.close(tracer.open(f"inner-{t}"))
            tracer.close(outer)

    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    tracer.close(root)
    if any(thread.is_alive() for thread in pool):
        return ["tracer stress: a worker thread did not finish"]
    tracer.adopt_orphans()
    problems = []
    if len(tracer.spans) != 1 + 2 * threads * spans:
        problems.append(f"tracer stress: {len(tracer.spans)} spans recorded")
    for span in tracer.spans[1:]:
        parent = tracer.spans[span.parent] if span.parent is not None else None
        want = "instance" if span.name.startswith("outer") else "outer" + span.name[5:]
        if parent is None or parent.name != want or not (
                parent.start <= span.start <= span.end <= parent.end):
            problems.append(f"tracer stress: span {span.name} has parent "
                            f"{parent.name if parent else None}")
            break
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {section: {m["name"]: m["unit"] for m in spec[section]}
             for section in ("end_to_end", "per_layer")}
    problems: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    for name in [w["name"] for w in spec["workloads"]] + list(UNGATED_WORKLOADS):
        plain, plain_doc, stdout = run(name, 0, 0, "plain", TINY)
        traced = [run(name, 0, 1, f"traced{i}", TINY) for i in (1, 2)]
        for mode, (result, _doc, _out) in (("end_to_end", (plain, plain_doc, stdout)),
                                           ("per_layer", traced[0])):
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units[mode], f"{name}: {mode} metrics/units {got} != {units[mode]}")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{name}: {mode} run not correct")
        printed = PRINTED + (("epsilon_final.mean",) if name != "monolithic-ts" else ())
        for metric in printed:
            expect(any(line.split()[:1] == [metric] and len(line.split()) == 3
                       for line in stdout.splitlines()),
                   f"{name}: {metric} not printed with a unit")
        (r1, d1, _), (r2, d2, _) = traced
        for metric in EXACT_LAYER:
            a, b = r1["metrics"][metric]["value"], r2["metrics"][metric]["value"]
            expect(a == b, f"{name}: {metric} differs across runs: {a} != {b}")
        for metric in EXACT_E2E:
            a, b = d1["end_to_end"].get(metric), d2["end_to_end"].get(metric)
            expect(a == b, f"{name}: {metric} differs across runs: {a} != {b}")
        expect(d1["environment"]["nproc"] >= 1 and d1["environment"]["scipy"],
               f"{name}: environment stamp incomplete: {d1['environment']}")

    result, doc, _ = run("compare-dc", 1, 0, "known-failure",
                         ["--instances", "1", "--nodes", "12", "--steps", "8"])
    expect(result["attempted"] == 1 and result["failed"] == 1,
           f"known-failing DC instance: attempted {result['attempted']}, "
           f"failed {result['failed']}")
    failure = doc["failures"][0] if doc["failures"] else {}
    expect(failure.get("seed") == 1 and failure.get("error") == "SubproblemError"
           and str(failure.get("message")).startswith("redesign: cluster"),
           f"known-failing DC instance: failure record {failure}")

    problems.extend(tracer_stress())

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
