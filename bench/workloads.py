"""Workload definitions, seeded corpora and the correctness gate.

Every workload calls the library the way ``sparta run`` / ``sparta compare``
do, or calls the first phase of that path on its own (``bounds-ts``):
``SpArtaConfig()`` defaults and ``jobs=None``, so the program's own thread
pools (two workers in ``driver.run_iterations``, one per cluster in
``decompose.redesign_all``) stay as they ship.  Instance ``i`` of a run with
seed ``s`` is ``generate(GeneratorSpec(seed=s + i, ...))``.

Sizes are chosen so that one run of ``run_seconds`` covers dozens of
instances: per-instance wall varies severalfold across seeds (the bound loop
takes a different number of iterations), and only averaging over many
instances keeps run-to-run spread inside the benchmark's bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp

import sparta.pipeline
from sparta.driver import SpArtaConfig, gap
from sparta.full_model import build_full_lp
from sparta.generator import GeneratorSpec, generate
from sparta.lp import EQ, GE, LE, LinearProgram
from sparta.model import DC, TRANSSHIPMENT, EnergySystemInstance

#: relative slack on the certificate chain and on the HiGHS cross-check
REL_TOL = 1e-6

PIPELINE = "pipeline"
COMPARE = "compare"
MONOLITHIC = "monolithic"
BOUNDS = "bounds"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # PIPELINE, COMPARE, MONOLITHIC or BOUNDS
    transport_mode: str
    n_nodes: int
    n_time_steps: int

    def spec(self, seed: int, n_nodes: int | None = None,
             n_time_steps: int | None = None) -> GeneratorSpec:
        return GeneratorSpec(
            seed=seed,
            n_nodes=n_nodes or self.n_nodes,
            n_time_steps=n_time_steps or self.n_time_steps,
            n_products=3,
            n_components=5,
            transport_mode=self.transport_mode,
        )

    def call(self) -> Callable[[EnergySystemInstance], Any]:
        """The timed library call; looked up at call time so tracing sees it."""
        if self.kind == MONOLITHIC:
            return lambda inst: sparta.pipeline.solve_full(inst)
        if self.kind == BOUNDS:
            return lambda inst: sparta.pipeline.run_iterations(inst, SpArtaConfig())
        benchmark = self.kind == COMPARE
        return lambda inst: sparta.pipeline.run_pipeline(
            inst, SpArtaConfig(), jobs=None, benchmark=benchmark)


# Why each workload exists is recorded in BENCHMARK.json next to its name.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bounds-ts", BOUNDS, TRANSSHIPMENT, n_nodes=4, n_time_steps=4),
        Workload("pipeline-ts", PIPELINE, TRANSSHIPMENT, n_nodes=6, n_time_steps=8),
        Workload("compare-dc", COMPARE, DC, n_nodes=4, n_time_steps=8),
        Workload("monolithic-ts", MONOLITHIC, TRANSSHIPMENT, n_nodes=8, n_time_steps=8),
    )
}


def make_corpus(workload: Workload, seed: int, count: int,
                n_nodes: int | None = None,
                n_time_steps: int | None = None) -> list[tuple[int, EnergySystemInstance]]:
    return [(s, generate(workload.spec(s, n_nodes, n_time_steps)))
            for s in range(seed, seed + count)]


# -- correctness gate ----------------------------------------------------------

class CheckViolation(Exception):
    """A returned result broke a certificate or disagreed with HiGHS.

    ``wrong`` marks a number that cannot be right: a lower bound above a
    feasible cost, or a monolithic optimum that disagrees with HiGHS or costs
    more than a feasible design.  A final design costlier than the upper
    bound's (``TAC_final > TAC_ub``) is a broken promise of the pipeline, not
    a wrong number: the design is feasible and its gap to the lower bound is
    still a valid certificate.  Both count as failed instances; only a wrong
    number makes the run incorrect.
    """

    def __init__(self, message: str, wrong: bool = True) -> None:
        super().__init__(message)
        self.wrong = wrong


def _le(a: float, b: float) -> bool:
    return a <= b + REL_TOL * max(1.0, abs(a), abs(b))


def _chain(*named: tuple[str, float], wrong: bool = True) -> None:
    """Require the named values to be non-decreasing, within REL_TOL."""
    for (_, a), (_, b) in zip(named, named[1:]):
        if not _le(a, b):
            raise CheckViolation(
                "certificate broken: need " + " <= ".join(f"{n} {v!r}" for n, v in named),
                wrong=wrong)


def highs_objective(lp: LinearProgram) -> float:
    """Optimum of ``lp`` from ``scipy.optimize.linprog(method="highs")``.

    ``scipy.optimize`` is imported here, not at module level, so that it
    loads only once the run's peak memory has been read.
    """
    from scipy.optimize import linprog

    a = lp.matrix()
    b = lp.rhs_vector()
    rel = np.array(lp.relations())
    le, ge, eq = rel == LE, rel == GE, rel == EQ
    a_ub = sp.vstack([a[le], -a[ge]]).tocsr()
    b_ub = np.concatenate([b[le], -b[ge]])
    lo, up = lp.bounds()
    res = linprog(
        lp.objective_vector(),
        A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=b_ub if a_ub.shape[0] else None,
        A_eq=a[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=np.column_stack([lo, up]),
        method="highs",
    )
    if res.status != 0:
        raise CheckViolation(f"HiGHS reference solve ended with status {res.status}: {res.message}")
    return float(res.fun) + lp.objective_constant


def check_highs(instance: EnergySystemInstance, tac_full: float) -> float:
    """Raise CheckViolation unless ``tac_full`` matches HiGHS; return its optimum."""
    reference = highs_objective(build_full_lp(instance))
    if abs(tac_full - reference) > REL_TOL * max(1.0, abs(reference)):
        raise CheckViolation(
            f"monolithic objective {tac_full!r} differs from HiGHS {reference!r}")
    return reference


def check_bracket(instance: EnergySystemInstance, tac_lb: float, tac_ub: float) -> float:
    """Raise CheckViolation unless HiGHS's optimum lies between the bounds."""
    reference = highs_objective(build_full_lp(instance))
    _chain(("TAC_lb", tac_lb), ("TAC_highs", reference), ("TAC_ub", tac_ub))
    return reference


def check(workload: Workload, result: Any) -> dict[str, float]:
    """Raise CheckViolation unless ``result`` is certified; return key figures.

    These are the cheap checks on the returned numbers.  Where the figures
    hold a monolithic optimum (``tac_full``), :func:`check_highs` must pass
    too before the instance counts as passed, and the bounds of a bare bound
    loop must bracket HiGHS's optimum (:func:`check_bracket`).
    """
    if workload.kind == MONOLITHIC:
        return {"tac_full": result.tac}
    if workload.kind == BOUNDS:
        return _check_bounds(result)
    rep = result.report
    figures = {"tac_lb": rep.tac_lb, "tac_ub": rep.tac_ub, "tac_final": rep.tac_final,
               "epsilon_final": rep.epsilon_final, "iterations": rep.iterations,
               "k_final": rep.k_final, "network_opt_used": rep.network_opt_used}
    _chain(("TAC_lb", rep.tac_lb), ("TAC_final", rep.tac_final))
    if workload.kind == COMPARE:
        _chain(("TAC_lb", rep.tac_lb), ("TAC_full", rep.tac_full),
               ("TAC_final", rep.tac_final))
        figures["tac_full"] = rep.tac_full
    _chain(("TAC_final", rep.tac_final), ("TAC_ub", rep.tac_ub), wrong=False)
    if not math.isfinite(rep.epsilon_final):
        raise CheckViolation(f"epsilon_final is {rep.epsilon_final!r}", wrong=False)
    return figures


def _check_bounds(run: Any) -> dict[str, float]:
    """The bound loop's certificate, read the way ``run_pipeline`` reads it.

    Its ``epsilon_final`` is the certified gap of the design it returns, the
    upper-bound restriction, to the best lower bound.
    """
    if run.ub_solution is None:
        raise CheckViolation(f"no feasible restriction: {run.reason}", wrong=False)
    decomposed = next(rec for rec in reversed(run.history)
                      if rec.ub_solution is run.ub_solution)
    tac_lb = max(rec.tac_lb for rec in run.history)
    _chain(("TAC_lb", tac_lb), ("TAC_ub", decomposed.tac_ub))
    if not tac_lb > 0.0:
        raise CheckViolation(f"lower bound {tac_lb!r} leaves the gap undefined", wrong=False)
    return {"tac_lb": tac_lb, "tac_ub": decomposed.tac_ub,
            "epsilon_final": gap(tac_lb, decomposed.tac_ub),
            "iterations": len(run.history), "k_final": decomposed.k_effective}
