"""Per-layer metrics from the spans of one traced run.

Times and counts are per attempted instance of the traced run, so runs that
get through different numbers of instances stay comparable.  Ratios give
their base in the name's definition in ``bench/README.md``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import Tracer, union_length

#: span name -> the ComparisonReport phase whose wall it covers
PHASE_SPANS = {
    "driver.run_iterations": "bounds",
    "decompose.redesign_all": "redesign",
    "decompose.operational_check": "check",
    "decompose.network_optimization": "network",
    "pipeline.solve_full": "full",
}
PHASES = ("bounds", "redesign", "check", "network", "full")

#: simplex.s.<family> by the prefix of ``lp.name``
FAMILIES = (("lower-", "bounds"), ("upper-", "bounds"), ("cluster-", "cluster"),
            ("operational-check", "check"), ("network-optimization", "network"),
            ("full", "full"))


def lp_family(name: str) -> str:
    for prefix, family in FAMILIES:
        if name.startswith(prefix):
            return family
    raise ValueError(f"LP name {name!r} belongs to no known family")


def layer_metrics(tracer: Tracer, records: list[dict], generator_s: float,
                  overhead: float) -> tuple[dict[str, float], dict]:
    """Return (per-layer metrics, phase table for the result artifact).

    ``records`` are the traced instances in order; passing ones carry the
    phase walls their report (or, for a bare ``solve_full``, the benchmark's
    own timer) gave.
    """
    tracer.adopt_orphans()
    self_s = tracer.self_times()
    n = max(len(records), 1)
    wall = defaultdict(float)
    selft = defaultdict(float)
    calls = defaultdict(int)
    family_s = defaultdict(float)
    family_wall = defaultdict(float)
    iterations = 0
    bound_nnz: list[int] = []
    full_nnz: list[int] = []
    for span, own in zip(tracer.spans, self_s):
        name = span.name
        if name == "full_model.build_full_lp" and lp_family(span.attrs["lp"]) == "cluster":
            continue  # a cluster subproblem: decompose.subproblem_build_s holds its time
        wall[name] += span.wall
        selft[name] += own
        calls[name] += 1
        if name == "simplex.solve":
            family = lp_family(span.attrs["lp"])
            family_s[family] += own
            family_wall[family] += span.wall
            iterations += span.attrs["iterations"]
        elif name == "lp.matrix":
            family = lp_family(span.attrs["lp"])
            if family == "bounds":
                bound_nnz.append(span.attrs["nnz"])
            elif family != "cluster":
                full_nnz.append(span.attrs["nnz"])

    passed = [r for r in records if r["status"] == "passed"]
    reports = [r for r in passed if "iterations" in r]
    m: dict[str, float] = {
        "simplex.calls": calls["simplex.solve"] / n,
        "simplex.iterations": iterations / n,
        "simplex.s": selft["simplex.solve"] / n,
    }
    for family in ("bounds", "cluster", "check", "network", "full"):
        m[f"simplex.s.{family}"] = family_s[family] / n
    m["clustering.s"] = (selft["clustering.cluster_nodes"]
                         + selft["clustering.split_disconnected"]) / n
    m["bounds.build_s"] = (selft["bounds.build_lb_lp"] + selft["bounds.build_ub_lp"]) / n
    m["bounds.extract_s"] = selft["bounds.extract_aggregated_solution"] / n
    m["bounds.nnz"] = statistics.fmean(bound_nnz) if bound_nnz else 0.0
    m["driver.iterations"] = _mean(r["iterations"] for r in reports)
    m["driver.k_final"] = _mean(r["k_final"] for r in reports)
    m["driver.s"] = wall["driver.run_iterations"] / n
    m["driver.solve_overlap"] = _ratio(family_wall["bounds"], wall["driver.run_iterations"])
    m["full_model.builds"] = calls["full_model.build_full_lp"] / n
    m["full_model.build_s"] = wall["full_model.build_full_lp"] / n
    m["full_model.nnz.max"] = float(max(full_nnz, default=0))
    m["lp.add_constraint.calls"] = tracer.counts["add_constraint"] / n
    m["lp.add_variable.calls"] = tracer.counts["add_variable"] / n
    m["lp.matrix_s"] = wall["lp.matrix"] / n
    m["decompose.redesign_s"] = wall["decompose.redesign_all"] / n
    m["decompose.subproblem_build_s"] = wall["decompose.build_cluster_subproblem"] / n
    m["decompose.redesign_parallelism"] = _ratio(family_wall["cluster"],
                                                 wall["decompose.redesign_all"])
    m["decompose.check_s"] = wall["decompose.operational_check"] / n
    m["decompose.network_s"] = wall["decompose.network_optimization"] / n
    m["decompose.network_runs"] = calls["decompose.network_optimization"] / n
    m["solution.extract_s"] = wall["solution.extract_solution"] / n
    for phase in PHASES:
        m[f"pipeline.{phase}_s"] = _mean(r["phases"][phase] for r in passed)
    m["pipeline.agg_to_full_ratio"] = _ratio(
        sum(r["phases"]["bounds"] + r["phases"]["redesign"] + r["phases"]["check"]
            + r["phases"]["network"] for r in reports if r["phases"]["full"]),
        sum(r["phases"]["full"] for r in reports))
    m["pipeline.epsilon_final.mean"] = _mean(r["epsilon_final"] for r in reports)
    m["generator.s"] = generator_s
    m["trace.overhead"] = overhead

    table = _phase_table(tracer, self_s, passed)
    m["trace.self_coverage"] = _ratio(sum(row["covered_s"] for row in table.values()),
                                      sum(row["report_s"] for row in table.values()))
    return m, table


def _phase_table(tracer: Tracer, self_s: list[float], passed: list[dict]) -> dict:
    """Self time by layer inside each phase, next to the phase's reported wall.

    Only passing instances count, because only they have a report.  Each
    phase has one span that covers it (``PHASE_SPANS``); ``phase_self_s`` is
    that span's own self time, the glue inside the phase that no wrapped
    callee explains.  ``concurrent_s`` is the time sibling spans on different
    pool threads ran at once (their summed walls minus the union of their
    intervals).  ``covered_s`` is the self time of every span below the
    phase span, less ``concurrent_s``: the part of the phase wall the
    wrapped callees account for.  ``self_s_by_layer`` splits all the self
    time in the phase, the phase span's included, by layer.
    """
    passed_ids = {r["instance"] for r in passed}
    table = {phase: {"report_s": sum(r["phases"][phase] for r in passed),
                     "self_s_total": 0.0, "phase_self_s": 0.0, "concurrent_s": 0.0,
                     "self_s_by_layer": defaultdict(float)}
             for phase in PHASES}
    children = tracer.child_intervals()
    phase_of: dict[int, str | None] = {}
    for i, span in enumerate(tracer.spans):
        parent = span.parent
        phase = PHASE_SPANS.get(span.name)
        if phase is None and parent is not None:
            phase = phase_of.get(parent)
        phase_of[i] = phase
    for i, span in enumerate(tracer.spans):
        phase = phase_of[i]
        if phase is None or span.instance not in passed_ids:
            continue
        row = table[phase]
        row["self_s_total"] += self_s[i]
        if span.name in PHASE_SPANS:
            row["phase_self_s"] += self_s[i]
        row["self_s_by_layer"][span.name.split(".", 1)[0]] += self_s[i]
        kids = children.get(i, [])
        row["concurrent_s"] += (sum(min(e, span.end) - max(s, span.start) for s, e in kids)
                                - union_length(kids, span.start, span.end))
    for row in table.values():
        row["covered_s"] = row["self_s_total"] - row["phase_self_s"] - row["concurrent_s"]
        row["self_s_by_layer"] = dict(row["self_s_by_layer"])
    return table


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0
