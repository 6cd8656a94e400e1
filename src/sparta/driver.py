"""Iterative resolution loop: cluster, bound both sides, widen k until tight.

Each pass clusters the nodes, solves the relaxed and restricted aggregated
problems, and records the relative gap between them.  At one node per
cluster both problems are the monolithic LP, so that pass builds and solves
it once and reads both bounds off the one result.  The next resolution
comes from a fixed step or from extrapolating both bound trends toward the
band where they would meet within the target gap.  Each pass leaves one
DEBUG record on the ``sparta.driver`` logger saying how it picked the next
resolution.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from . import simplex
from .bounds import (
    AggregatedSolution,
    build_lb_lp,
    build_ub_lp,
    check_existing_within_limits,
    check_reachability,
    extract_aggregated_solution,
)
from .clustering import METHODS, ClusterAssignment, cluster_nodes, split_disconnected
from .lp import (
    INFEASIBLE,
    UNBOUNDED,
    InfeasibleInstanceError,
    NumericBreakdownError,
    UnboundedModelError,
)
from .model import EnergySystemInstance, validate_instance

FAST_FORWARD = "fast-forward"

CONVERGED = "converged"
MAX_ITERATIONS = "max-iterations"

# why the loop picked its next resolution, as logged per pass
FIXED_STEP = "fixed-step"
MIN_STEP = "min-step"
CAPPED_AT_N = "capped-at-n"

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpArtaConfig:
    """Loop parameters; defaults follow the reference setup."""

    epsilon_target: float = 0.05
    initial_k: int = 2
    step_rule: str = FAST_FORWARD
    min_step: int = 1
    max_step: int = 10
    cluster_method: str = "kmedoids"
    seed: int = 0
    max_iterations: int = 100
    solver_tolerance: float = 1e-7

    def __post_init__(self) -> None:
        if not self.epsilon_target > 0.0:
            raise ValueError("epsilon_target must be positive")
        if not 1 <= self.min_step <= self.max_step:
            raise ValueError("need 1 <= min_step <= max_step")
        if self.initial_k < 2:
            raise ValueError("the starting resolution is two clusters or more")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.solver_tolerance < math.inf:
            raise ValueError("solver_tolerance must be positive and finite")
        if self.cluster_method not in METHODS:
            raise ValueError(f"unknown clustering method {self.cluster_method!r}")
        self.fixed_step()

    def fixed_step(self) -> int | None:
        """Parsed step size for ``fixed:<n>`` rules, None for fast-forward."""
        if self.step_rule == FAST_FORWARD:
            return None
        if self.step_rule.startswith("fixed:"):
            try:
                step = int(self.step_rule.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad step rule {self.step_rule!r}") from None
            if step < 1:
                raise ValueError("fixed step must be at least 1")
            return step
        raise ValueError(f"unknown step rule {self.step_rule!r}")


@dataclass
class BoundIterationRecord:
    """One resolution's bounds; the convergence log serializes these."""

    iteration: int
    k_requested: int
    k_effective: int
    tac_lb: float
    tac_ub: float   # infinite when the restriction was infeasible at this k
    epsilon: float
    wall_lb_s: float
    wall_ub_s: float  # 0.0 at one node per cluster: the lower bound's solve serves both
    assignment: ClusterAssignment | None = None
    ub_solution: AggregatedSolution | None = None


@dataclass
class RunResult:
    """Terminating state of the loop, ready for decomposition."""

    history: list[BoundIterationRecord]
    assignment: ClusterAssignment
    ub_solution: AggregatedSolution | None
    reason: str


def gap(tac_lb: float, tac_ub: float) -> float:
    """Relative distance between the bounds, anchored on the lower one."""
    if tac_lb <= 0.0:
        raise ValueError("relative gap undefined for a nonpositive lower bound")
    return (tac_ub - tac_lb) / tac_lb


def tolerant_gap(tac_lb: float, tac: float, tol: float) -> float:
    """:func:`gap`, except where the lower bound is within tolerance of zero.

    Such a bound cannot anchor a relative gap: the gap is then closed when
    ``tac`` is that small too (nothing worth building) and infinite otherwise.
    """
    atol = max(tol, 1e-12)
    if tac_lb > atol:
        return gap(tac_lb, tac)
    return 0.0 if tac <= atol else math.inf


def fast_forward_next_k(previous: BoundIterationRecord, latest: BoundIterationRecord,
                        epsilon_target: float, min_step: int, max_step: int) -> int:
    """Extrapolate both bound trends into the target band and jump there.

    Straight lines through the last two iterations are intersected with a
    band of half-width epsilon_target*tac_lb/2 around the bound midpoint;
    the nearer intersection ahead sets the next resolution.  Flat or
    wrong-direction trends are discarded, and when nothing usable remains
    the resolution advances by the minimum step.
    """
    k_latest = latest.k_effective
    dk = k_latest - previous.k_effective
    values = (previous.tac_lb, previous.tac_ub, latest.tac_lb, latest.tac_ub)
    if dk <= 0 or not all(math.isfinite(v) for v in values):
        return k_latest + min_step
    center = 0.5 * (latest.tac_lb + latest.tac_ub)
    half_width = 0.5 * epsilon_target * latest.tac_lb
    candidates = []
    slope_lb = (latest.tac_lb - previous.tac_lb) / dk
    if slope_lb > 0.0:  # the lower bound must rise to meet the band
        candidates.append(k_latest + (center - half_width - latest.tac_lb) / slope_lb)
    slope_ub = (latest.tac_ub - previous.tac_ub) / dk
    if slope_ub < 0.0:  # the upper bound must fall to meet it
        candidates.append(k_latest + (center + half_width - latest.tac_ub) / slope_ub)
    if not candidates:
        return k_latest + min_step
    step = math.ceil(min(candidates)) - k_latest
    return k_latest + min(max(step, min_step), max_step)


def _cluster_and_split(instance: EnergySystemInstance, config: SpArtaConfig,
                       k: int) -> ClusterAssignment:
    raw = cluster_nodes(instance, k, config.cluster_method, seed=config.seed)
    return split_disconnected(instance, raw)


def _next_k(config: SpArtaConfig, history: list[BoundIterationRecord],
            n: int) -> tuple[int, str]:
    """The next resolution and the rule that picked it."""
    latest = history[-1]
    step = config.fixed_step()
    if step is not None:
        proposal, rule = latest.k_effective + step, FIXED_STEP
    elif len(history) < 2:
        proposal, rule = latest.k_effective + config.min_step, MIN_STEP
    else:
        proposal = fast_forward_next_k(history[-2], latest, config.epsilon_target,
                                       config.min_step, config.max_step)
        # a fallback to the minimum step and a clamp up to it both log as such
        rule = MIN_STEP if proposal - latest.k_effective == config.min_step else FAST_FORWARD
    if proposal > n:
        return n, CAPPED_AT_N
    return proposal, rule


def _log_pass(record: BoundIterationRecord, shared_solve: bool, next_k: int | None,
              rule: str | None) -> None:
    """One DEBUG record per pass; ``next_k`` and ``rule`` are None once converged."""
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "pass %d: k=%d lb=%.6g ub=%.6g epsilon=%.3g, %s", record.iteration,
            record.k_effective, record.tac_lb, record.tac_ub, record.epsilon,
            "converged" if next_k is None else f"next k={next_k} ({rule})",
            extra={
                "iteration": record.iteration,
                "k_requested": record.k_requested,
                "k_effective": record.k_effective,
                "tac_lb": record.tac_lb,
                "tac_ub": record.tac_ub,
                "epsilon": record.epsilon,
                "wall_lb_s": record.wall_lb_s,
                "wall_ub_s": record.wall_ub_s,
                "shared_solve": shared_solve,
                "next_k": next_k,
                "next_k_rule": rule,
            },
        )


def run_iterations(instance: EnergySystemInstance,
                   config: SpArtaConfig | None = None) -> RunResult:
    """Raise the spatial resolution until the bound gap meets the target.

    Stops when the gap closes or when the iteration budget runs out; the
    reason is reported on the result.  An infeasible relaxation means the
    instance itself has no solution.  An infeasible restriction just means
    this resolution was too coarse.  At one node per cluster the two bound
    LPs are the same monolithic LP, so only the lower bound's is built and
    solved: that pass has ``tac_ub == tac_lb`` (so the gap always closes
    there), its design comes from the same solve, and its ``wall_ub_s`` is
    0.0.  The instance's structural checks run once, before the first build.
    """
    report = validate_instance(instance)
    if not report.ok:
        raise ValueError("invalid instance: " + "; ".join(report.violations))
    check_reachability(instance)
    check_existing_within_limits(instance)
    config = config or SpArtaConfig()
    n = instance.n_nodes
    history: list[BoundIterationRecord] = []
    k = min(config.initial_k, n)
    reason = MAX_ITERATIONS
    for iteration in range(config.max_iterations):
        assignment = _cluster_and_split(instance, config, k)
        floor = history[-1].k_effective if history else 0
        while assignment.k <= floor and k < n:
            k += 1  # splitting collapsed the step; force fresh resolution
            assignment = _cluster_and_split(instance, config, k)

        lb_lp = build_lb_lp(instance, assignment)
        lb_res = simplex.solve(lb_lp, config.solver_tolerance)
        if lb_res.status == INFEASIBLE:
            raise InfeasibleInstanceError(
                "instance is infeasible even with free intra-cluster transport")
        if lb_res.status == UNBOUNDED:
            raise UnboundedModelError("lower bound LP is unbounded")
        if not lb_res.optimal:
            raise NumericBreakdownError(f"lower bound solve ended {lb_res.status!r}")
        tac_lb = lb_res.objective

        shared_solve = assignment.k >= n
        if shared_solve:  # the restriction's guards all vanish at singletons
            ub_lp, ub_res, wall_ub_s = lb_lp, lb_res, 0.0
        else:
            ub_lp = build_ub_lp(instance, assignment)
            ub_res = simplex.solve(ub_lp, config.solver_tolerance)
            wall_ub_s = ub_res.wall_time
        ub_solution = None
        if ub_res.optimal:
            tac_ub = ub_res.objective
            ub_solution = extract_aggregated_solution(instance, assignment, ub_lp, ub_res)
        elif ub_res.status == INFEASIBLE:
            tac_ub = math.inf  # too coarse; a finer resolution may recover
        elif ub_res.status == UNBOUNDED:
            raise UnboundedModelError("upper bound LP is unbounded")
        else:
            raise NumericBreakdownError(f"upper bound solve ended {ub_res.status!r}")

        epsilon = tolerant_gap(tac_lb, tac_ub, config.solver_tolerance)

        if ub_solution is not None:
            for old in history:
                old.ub_solution = None  # only the latest design is retained
        record = BoundIterationRecord(
            iteration=iteration, k_requested=k, k_effective=assignment.k,
            tac_lb=tac_lb, tac_ub=tac_ub, epsilon=epsilon,
            wall_lb_s=lb_res.wall_time, wall_ub_s=wall_ub_s,
            assignment=assignment, ub_solution=ub_solution)
        history.append(record)

        if epsilon <= config.epsilon_target:
            _log_pass(record, shared_solve, None, None)
            reason = CONVERGED
            break
        k, rule = _next_k(config, history, n)
        _log_pass(record, shared_solve, k, rule)

    # pair the returned assignment with the newest record holding a design,
    # so a trailing infeasible restriction cannot strand the caller
    best = next((rec for rec in reversed(history) if rec.ub_solution is not None),
                history[-1])
    return RunResult(history=history, assignment=best.assignment,
                     ub_solution=best.ub_solution, reason=reason)
