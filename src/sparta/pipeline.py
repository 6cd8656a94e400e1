"""End-to-end orchestration of the aggregation method.

One call chains the four phases: the bound-tightening loop over cluster
counts, the per-cluster redesign, the operational feasibility check of the
recombined design, and, when that check fails or the caller insists, the
final grid redesign.  An optional benchmark solves the same instance at
full scale so the report can state solution quality against the true
optimum instead of only against the lower bound.

All solution-quality figures in the report are recomputed from the stored
costs with the same relative-gap formula the loop terminates on, anchored
at the best lower bound seen across all iterations (every iteration's
lower bound is valid, whatever resolution produced it).  Wall times are
measured per phase; the speedup against the benchmark is reported, never
asserted, because it depends on the machine.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import simplex
from .bounds import check_existing_within_limits, check_reachability
from .decompose import (
    ClusterRedesign,
    FullDesign,
    network_optimization,
    operational_check,
    redesign_all,
    redesign_tac,
)
from .driver import RunResult, SpArtaConfig, run_iterations
from .driver import tolerant_gap as _quality  # the loop's own gap rule
from .full_model import build_full_lp
from .lp import (
    INFEASIBLE,
    UNBOUNDED,
    DocumentFormatError,
    InfeasibleInstanceError,
    NumericBreakdownError,
    SpartaError,
    UnboundedModelError,
)
from .model import EnergySystemInstance, validate_instance
from .solution import SystemSolution, extract_solution

REPORT_SCHEMA = "sparta-report/1"
REDESIGN_SCHEMA = "sparta-redesign/1"


@dataclass
class ComparisonReport:
    """Cost and timing summary of one run, benchmark column optional."""

    tac_lb: float
    tac_ub: float
    tac_redesign: float
    tac_final: float
    tac_full: float | None
    epsilon_bounds: float
    epsilon_redesign: float
    epsilon_final: float
    network_opt_used: bool
    k_final: int
    iterations: int
    wall_bounds_s: float
    wall_redesign_s: float
    wall_check_s: float
    wall_network_s: float
    wall_full_s: float | None
    speedup: float | None

    @property
    def wall_sparta_s(self) -> float:
        return (self.wall_bounds_s + self.wall_redesign_s
                + self.wall_check_s + self.wall_network_s)


@dataclass
class PipelineResult:
    """Everything a caller may want back from one run."""

    report: ComparisonReport
    run: RunResult
    design: FullDesign
    redesigns: list[ClusterRedesign]
    solution: SystemSolution
    full_solution: SystemSolution | None
    check_status: str


def solve_full(instance: EnergySystemInstance, tol: float = 1e-7) -> SystemSolution:
    """Benchmark path: one monolithic solve at full spatial resolution."""
    report = validate_instance(instance)
    if not report.ok:
        raise ValueError("invalid instance: " + "; ".join(report.violations))
    check_reachability(instance)
    check_existing_within_limits(instance)
    lp = build_full_lp(instance)
    result = simplex.solve(lp, tol)
    if result.status == INFEASIBLE:
        raise InfeasibleInstanceError("full-scale model is infeasible")
    if result.status == UNBOUNDED:
        raise UnboundedModelError("full-scale model is unbounded")
    if not result.optimal:
        raise NumericBreakdownError(f"full-scale solve ended {result.status!r}")
    return extract_solution(instance, lp, result)


def run_pipeline(
    instance: EnergySystemInstance,
    config: SpArtaConfig | None = None,
    *,
    jobs: int | None = None,
    benchmark: bool = True,
    force_network_opt: bool = False,
) -> PipelineResult:
    """Run every phase and assemble the comparison report.

    Any phase failure is re-raised as the same error type with the phase
    name prefixed, so callers can tell where a run died.
    """
    config = config or SpArtaConfig()

    t0 = time.perf_counter()
    with _phase("bounds"):
        run = run_iterations(instance, config)
        if run.ub_solution is None:
            raise InfeasibleInstanceError(
                "no feasible restriction within the iteration budget; "
                "raise max_iterations or loosen the target gap")
    wall_bounds = time.perf_counter() - t0

    decomposed = next(rec for rec in reversed(run.history)
                      if rec.ub_solution is run.ub_solution)
    tac_lb = max(rec.tac_lb for rec in run.history)
    tac_ub = decomposed.tac_ub

    t0 = time.perf_counter()
    with _phase("redesign"):
        design, redesigns = redesign_all(
            instance, run.assignment, run.ub_solution,
            jobs=jobs, tol=config.solver_tolerance)
        tac_redesign = redesign_tac(instance, design, redesigns)
    wall_redesign = time.perf_counter() - t0

    t0 = time.perf_counter()
    with _phase("operational-check"):
        check, operated = operational_check(instance, design, config.solver_tolerance)
    wall_check = time.perf_counter() - t0

    # Under phase-angle flow the frozen grid can force a dispatch that costs
    # more than the per-cluster accounting, even when it is feasible.  The
    # grid re-design repairs that; in transshipment mode the check can only
    # come in at or below the cluster sum, so the trigger stays cold.
    overshoot = (operated is not None
                 and operated.tac > tac_redesign * (1.0 + config.solver_tolerance))
    wall_network = 0.0
    network_opt_used = operated is None or overshoot or force_network_opt
    if network_opt_used:
        t0 = time.perf_counter()
        with _phase("network-optimization"):
            final = network_optimization(instance, design, config.solver_tolerance)
        wall_network = time.perf_counter() - t0
    else:
        final = operated

    full_solution = None
    wall_full: float | None = None
    if benchmark:
        t0 = time.perf_counter()
        with _phase("benchmark"):
            full_solution = solve_full(instance, config.solver_tolerance)
        wall_full = time.perf_counter() - t0

    wall_sparta = wall_bounds + wall_redesign + wall_check + wall_network
    report = ComparisonReport(
        tac_lb=tac_lb,
        tac_ub=tac_ub,
        tac_redesign=tac_redesign,
        tac_final=final.tac,
        tac_full=None if full_solution is None else full_solution.tac,
        epsilon_bounds=_quality(tac_lb, tac_ub, config.solver_tolerance),
        epsilon_redesign=_quality(tac_lb, tac_redesign, config.solver_tolerance),
        epsilon_final=_quality(tac_lb, final.tac, config.solver_tolerance),
        network_opt_used=network_opt_used,
        k_final=decomposed.k_effective,
        iterations=len(run.history),
        wall_bounds_s=wall_bounds,
        wall_redesign_s=wall_redesign,
        wall_check_s=wall_check,
        wall_network_s=wall_network,
        wall_full_s=wall_full,
        speedup=None if wall_full is None or wall_sparta <= 0.0
        else wall_full / wall_sparta,
    )
    return PipelineResult(
        report=report, run=run, design=design, redesigns=redesigns,
        solution=final, full_solution=full_solution, check_status=check.status,
    )


class _phase:
    """Context manager tagging domain errors with the phase they came from."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None and isinstance(exc, SpartaError):
            raise type(exc)(f"{self.name}: {exc}") from exc
        return False


# -- report documents ---------------------------------------------------------

def report_to_document(report: ComparisonReport) -> dict[str, Any]:
    doc: dict[str, Any] = {"schema": REPORT_SCHEMA}
    for name in (
        "tac_lb", "tac_ub", "tac_redesign", "tac_final", "tac_full",
        "epsilon_bounds", "epsilon_redesign", "epsilon_final",
        "network_opt_used", "k_final", "iterations",
        "wall_bounds_s", "wall_redesign_s", "wall_check_s", "wall_network_s",
        "wall_full_s", "speedup",
    ):
        doc[name] = getattr(report, name)
    return doc


def report_from_document(doc: dict[str, Any]) -> ComparisonReport:
    if doc.get("schema") != REPORT_SCHEMA:
        raise DocumentFormatError(
            f"report document: schema {doc.get('schema')!r} is not {REPORT_SCHEMA!r}")
    fields = {key: value for key, value in doc.items() if key != "schema"}
    try:
        return ComparisonReport(**fields)
    except TypeError as exc:
        raise DocumentFormatError(f"report document: {exc}") from exc


def write_report(report: ComparisonReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report_to_document(report), indent=1) + "\n")


def read_report(path: str | Path) -> ComparisonReport:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"{path}: not valid structured text: {exc}") from exc
    return report_from_document(doc)


def redesign_report_document(run: RunResult,
                             redesigns: list[ClusterRedesign]) -> dict[str, Any]:
    """Per-cluster cost, emissions, and added internal grid capacity."""
    clusters = []
    for r in redesigns:
        clusters.append({
            "cluster": r.cluster,
            "members": list(run.assignment.clusters[r.cluster]),
            "tac": r.tac,
            "ghg": r.ghg,
            "expansion_added": r.expansion_added,
            "wall_time_s": r.wall_time,
        })
    return {"schema": REDESIGN_SCHEMA, "clusters": clusters}


def write_redesign_report(run: RunResult, redesigns: list[ClusterRedesign],
                          path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(redesign_report_document(run, redesigns), indent=1) + "\n")
