#!/usr/bin/env python3
"""Seeded benchmark of the sparta certified-design pipeline.

    python3 bench/run.py --workload bounds-ts --seed 0 --seconds 45 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One process and one caller in a closed loop: the next instance
starts when the previous call returns.  Only the library call is timed;
generation happens in set-up and the correctness gate runs outside the timed
region: the certificate checks after each call, the HiGHS cross-checks after
the loop, once the peak memory has been read.  A fixed reference computation
(``speed.py``) is timed between instances, and each instance's wall is also
given in units of it, which the machine's own drift does not move.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs every
instance twice, once plain and once with span wrappers installed (the order
alternates), and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object with the metrics that
``BENCHMARK.json`` names for the mode; a fuller result artifact, with an
environment stamp and one record per instance, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: instances generated in set-up; a run that gets through more generates
#: the next seeds as it goes, outside the timed region
CORPUS_SIZE = 128
#: set-ups measured per run (this process plus fresh interpreters)
SETUP_SAMPLES = 3
TIMING_NOTE = ("times are wall clock on a shared 2-CPU sandbox; other tenants "
               "can slow any run")

UNITS = {
    "setup_s": "s", "solved_per_min": "1/min", "cost_per_solved": "ref",
    "instance_s.p50": "s",
    "failed_share": "ratio", "epsilon_final.mean": "ratio", "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instances", type=int, default=None,
                   help="attempt exactly this many instances instead of timing "
                        "--seconds (smoke tests: counts then repeat exactly)")
    p.add_argument("--nodes", type=int, default=None, help="override the workload's node count")
    p.add_argument("--steps", type=int, default=None,
                   help="override the workload's time-step count")
    p.add_argument("--out", type=Path, default=None, help="result artifact path")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparta" / "pipeline.py").is_file():
        print(f"bench: no package source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import sparta.driver  # noqa: F401  (the timed import is part of set-up)
    import sparta.generator  # noqa: F401
    import sparta.pipeline  # noqa: F401
    import_s = time.perf_counter() - t0

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    count = args.instances or CORPUS_SIZE
    t0 = time.perf_counter()
    corpus = wl.make_corpus(workload, args.seed, count, args.nodes, args.steps)
    generator_s = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"import_s": import_s, "generator_s": generator_s}))
        return 0

    setups = [import_s + generator_s] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    _warm_up(workload, corpus)
    if args.trace:
        records, timed, tracer, extra = _traced_loop(args, workload, corpus)
    else:
        records, timed = _plain_loop(args, workload, corpus)
        extra = {}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    _gate_highs(workload, records, corpus)
    if args.trace:
        from layers import layer_metrics

        overhead = extra["traced_s"] / extra["plain_s"] - 1.0 if extra["plain_s"] > 0 else 0.0
        extra["per_layer"], extra["phase_self_times"] = layer_metrics(
            tracer, records, generator_s, overhead)

    attempted = len(records)
    passed = [r for r in records if r["status"] == "passed"]
    failed = attempted - len(passed)
    e2e = {
        "setup_s": statistics.median(setups),
        "solved_per_min": 60.0 * len(passed) / timed if timed > 0 else 0.0,
        "cost_per_solved": (sum(r.get("cost_ref", 0.0) for r in records)
                            / max(1, len(passed))),
        "instance_s.p50": statistics.median(r["wall_s"] for r in passed) if passed else 0.0,
        "failed_share": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    if workload.kind != wl.MONOLITHIC:
        e2e["epsilon_final.mean"] = (statistics.fmean(r["epsilon_final"] for r in passed)
                                     if passed else 0.0)
    correct = not any(r.get("wrong") for r in records)

    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    available = extra.get("per_layer", {}) if args.trace else e2e
    wanted = {m["name"]: m["unit"] for m in bench_spec[section]}
    missing = sorted(set(wanted) - set(available))
    if missing:
        print(f"bench: metrics named in BENCHMARK.json but not measured: {missing}",
              file=sys.stderr)
        return 1

    print(f"workload {workload.name} ({workload.transport_mode}, "
          f"{args.nodes or workload.n_nodes} nodes x {args.steps or workload.n_time_steps} "
          f"steps) seed {args.seed} trace {args.trace}: {attempted} attempted, "
          f"{failed} failed, correct={correct}, {timed:.1f} s timed")
    for rec in records:
        if rec["status"] != "passed":
            print(f"  {rec['status']}: seed {rec['seed']}: {rec['error']}: {rec['message']}")
    for name, value in e2e.items():
        print(f"{name:<32} {value:>14.6g} {UNITS[name]}")
    if args.trace:
        for name, value in available.items():
            print(f"{name:<32} {value:>14.6g} {wanted.get(name, '')}")

    artifact = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "spec": {"transport_mode": workload.transport_mode,
                 "n_nodes": args.nodes or workload.n_nodes,
                 "n_time_steps": args.steps or workload.n_time_steps,
                 "n_products": 3, "n_components": 5, "kind": workload.kind},
        "environment": stamp(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "timed_s": timed,
        "setup_samples_s": setups,
        "end_to_end": e2e,
        "failures": [{k: r[k] for k in ("seed", "status", "error", "message")}
                     for r in records if r["status"] != "passed"],
        "instances": records,
        **extra,
    }
    out = args.out or OUT / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(artifact, indent=1) + "\n")

    metrics = {name: {"value": available[name], "unit": unit} for name, unit in wanted.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _probe_setup(args: argparse.Namespace) -> float:
    """Import plus corpus generation, timed inside a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for flag, value in (("--instances", args.instances), ("--nodes", args.nodes),
                        ("--steps", args.steps)):
        if value is not None:
            cmd += [flag, str(value)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["import_s"] + probe["generator_s"]


def _instance(args, workload, corpus: list, index: int):
    """Instance ``index`` of the run: seed ``args.seed + index``."""
    import workloads as wl

    if index == len(corpus):
        corpus += wl.make_corpus(workload, args.seed + index, 1, args.nodes, args.steps)
    return corpus[index]


def _attempt(index: int, seed: int, instance, call) -> tuple[dict, object]:
    """One timed call; the record says how it ended, before any check."""
    t0 = time.perf_counter()
    try:
        result = call(instance)
        error = None
    except Exception as exc:  # a failed instance is data, not a benchmark crash
        result, error = None, exc
    wall = time.perf_counter() - t0
    record = {"instance": index, "seed": seed, "wall_s": wall, "status": "passed",
              "error": None, "message": None}
    if error is not None:
        record.update(status="failed", error=type(error).__name__, message=str(error))
    return record, result


def _warm_up(workload, corpus: list) -> None:
    """One untimed call, so lazy imports and first-touch costs stay out of
    the measured instances."""
    try:
        workload.call()(corpus[0][1])
    except Exception:  # the timed attempt of the same instance records it
        pass


def _gate(workload, record: dict, result) -> None:
    """Run the certificate checks on a returned result, outside any timing."""
    import workloads as wl

    if record["status"] != "passed":
        return
    try:
        record.update(wl.check(workload, result))
    except wl.CheckViolation as exc:
        _violated(record, exc)
        return
    if workload.kind in (wl.MONOLITHIC, wl.BOUNDS):
        phase = "full" if workload.kind == wl.MONOLITHIC else "bounds"
        record["phases"] = {p: 0.0 for p in ("bounds", "redesign", "check", "network", "full")}
        record["phases"][phase] = record["wall_s"]
    else:
        rep = result.report
        record["phases"] = {"bounds": rep.wall_bounds_s, "redesign": rep.wall_redesign_s,
                            "check": rep.wall_check_s, "network": rep.wall_network_s,
                            "full": rep.wall_full_s or 0.0}


def _violated(record: dict, exc) -> None:
    record.update(status="violated", error="CheckViolation", message=str(exc),
                  wrong=exc.wrong)


def _gate_highs(workload, records: list[dict], corpus: list) -> None:
    """Cross-check every passing monolithic optimum, and every bare bound
    loop's bracket, against HiGHS."""
    import workloads as wl

    for record in records:
        if record["status"] != "passed":
            continue
        _, instance = corpus[record["instance"]]
        try:
            if "tac_full" in record:
                record["tac_highs"] = wl.check_highs(instance, record["tac_full"])
            elif workload.kind == wl.BOUNDS:
                record["tac_highs"] = wl.check_bracket(instance, record["tac_lb"],
                                                       record["tac_ub"])
        except wl.CheckViolation as exc:
            _violated(record, exc)


def _plain_loop(args, workload, corpus) -> tuple[list[dict], float]:
    """Instances in turn, with the reference computation timed between them.

    An instance's ``cost_ref`` is its wall over the mean of the reference
    walls just before and just after it.
    """
    from speed import Reference

    call = workload.call()
    reference = Reference()
    records: list[dict] = []
    timed = 0.0
    i = 0
    before = reference.time()
    while (i < args.instances) if args.instances else (timed < args.seconds):
        seed, instance = _instance(args, workload, corpus, i)
        record, result = _attempt(i, seed, instance, call)
        after = reference.time()
        record["ref_s"] = (before + after) / 2
        record["cost_ref"] = record["wall_s"] / record["ref_s"]
        before = after
        timed += record["wall_s"]
        _gate(workload, record, result)
        records.append(record)
        i += 1
    return records, timed


def _traced_attempt(tracer, index: int, seed: int, instance, call) -> tuple[dict, object]:
    with tracer:
        tracer.instance = index
        root = tracer.open("instance", root=True)
        try:
            return _attempt(index, seed, instance, call)
        finally:
            tracer.close(root)
            tracer.instance = None


def _traced_loop(args, workload, corpus):
    """Each instance plain and traced, alternating which goes first."""
    from tracing import Tracer

    call = workload.call()
    tracer = Tracer()
    records: list[dict] = []
    plain_s = traced_s = 0.0
    i = 0
    while (i < args.instances) if args.instances else (plain_s + traced_s < args.seconds):
        seed, instance = _instance(args, workload, corpus, i)
        if i % 2 == 0:
            plain, _ = _attempt(i, seed, instance, call)
            record, result = _traced_attempt(tracer, i, seed, instance, call)
        else:
            record, result = _traced_attempt(tracer, i, seed, instance, call)
            plain, _ = _attempt(i, seed, instance, call)
        plain_s += plain["wall_s"]
        traced_s += record["wall_s"]
        if plain["error"] != record["error"]:
            record.update(status="violated", error="CheckViolation", wrong=True,
                          message=f"plain run raised {plain['error']}, traced run "
                                  f"{record['error']}: tracing changed the outcome")
        _gate(workload, record, result)
        records.append(record)
        i += 1
    return records, plain_s, tracer, {"plain_s": plain_s, "traced_s": traced_s}


def stamp() -> dict:
    import numpy
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "note": TIMING_NOTE,
    }


if __name__ == "__main__":
    sys.exit(main())
