"""Solution extraction: primal values back into system quantities.

The cost and emission figures are recomputed from instance data and raw
primal values, then compared against the solver's objective.  A mismatch
means the model builder and the bookkeeping here disagree, which is a bug,
not a data problem, so it raises instead of reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .lp import LinearProgram, SolutionMismatchError, SolveResult
from .model import TRANSSHIPMENT, EnergySystemInstance


@dataclass
class SystemSolution:
    """Design and operation of one solved instance, in model units."""

    capacity_expansion: dict[tuple[str, str], float] = field(default_factory=dict)
    grid_expansion: dict[tuple[str, str], float] = field(default_factory=dict)
    production: dict[tuple[str, str, str], float] = field(default_factory=dict)
    flows: dict[tuple[str, str, str], float] = field(default_factory=dict)
    imports: dict[tuple[str, str], float] = field(default_factory=dict)
    exports: dict[tuple[str, str, str], float] = field(default_factory=dict)
    angles: dict[tuple[str, str, str], float] = field(default_factory=dict)
    tac: float = 0.0
    capex_prod: float = 0.0
    capex_grid: float = 0.0
    opex: float = 0.0
    ghg: float = 0.0


def annual_cost_report(instance: EnergySystemInstance,
                       capacity_expansion: dict[tuple[str, str], float],
                       grid_expansion: dict[tuple[str, str], float],
                       production: dict[tuple[str, str, str], float],
                       imports: dict[tuple[str, str], float]) -> tuple[float, float, float, float]:
    """(capex_prod, capex_grid, opex, ghg) recomputed from first principles."""
    y_now = instance.n_prior_years
    capex_prod = 0.0
    for c, comp in enumerate(instance.production_components):
        for y in range(instance.n_prior_years):
            capex_prod += instance.annualized_invest(comp, y) * float(
                instance.existing_production[c, :, y].sum())
        annual = instance.annualized_invest(comp, y_now)
        for node in instance.nodes:
            capex_prod += annual * capacity_expansion.get((comp.id, node.id), 0.0)
    capex_grid = 0.0
    for g, comp in enumerate(instance.grid_components):
        for e, edge in enumerate(instance.edges):
            for y in range(instance.n_prior_years):
                capex_grid += (instance.annualized_invest(comp, y) * edge.length
                               * float(instance.existing_grid[g, e, y]))
            capex_grid += (instance.annualized_invest(comp, y_now) * edge.length
                           * grid_expansion.get((comp.id, edge.id), 0.0))
    opex = 0.0
    ghg = 0.0
    for comp in instance.production_components:
        for node in instance.nodes:
            for t, ts in enumerate(instance.time_steps):
                level = production.get((comp.id, node.id, ts.id), 0.0)
                opex += comp.op_cost * ts.weight * level
                ghg += comp.op_emission * ts.weight * level
    for b, product in enumerate(instance.products):
        if not product.import_allowed:
            continue
        for t, ts in enumerate(instance.time_steps):
            opex += float(product.import_cost[t]) * ts.weight * imports.get((product.id, ts.id), 0.0)
    return capex_prod, capex_grid, opex, ghg


def extract_solution(instance: EnergySystemInstance, lp: LinearProgram,
                     result: SolveResult) -> SystemSolution:
    """Map an optimal full-resolution result into a SystemSolution."""
    if not result.optimal:
        raise ValueError(f"cannot extract from a result with status {result.status!r}")
    sol = SystemSolution()
    for c, comp in enumerate(instance.production_components):
        for node in instance.nodes:
            sol.capacity_expansion[(comp.id, node.id)] = result.value_of(
                lp, ("cap", comp.id, node.id))
            for ts in instance.time_steps:
                sol.production[(comp.id, node.id, ts.id)] = result.value_of(
                    lp, ("prod", comp.id, node.id, ts.id))
    # booked exports: positive when the node feeds the edge's oriented flow,
    # summed per (node, step) over carriers, then edges, in declared order
    booked = {b: [[0.0] * instance.n_time_steps for _ in instance.nodes]
              for b, product in enumerate(instance.products) if product.transportable}
    for g, comp in enumerate(instance.grid_components):
        pb, ratio = instance.grid_product(comp)
        totals = booked.get(pb)
        for e, edge in enumerate(instance.edges):
            sol.grid_expansion[(comp.id, edge.id)] = result.value_of(
                lp, ("gcap", comp.id, edge.id))
            u, v = instance.edge_endpoints(e)
            for t, ts in enumerate(instance.time_steps):
                if comp.transport_mode == TRANSSHIPMENT:
                    net = (result.value_of(lp, ("fp", comp.id, edge.id, ts.id))
                           - result.value_of(lp, ("fm", comp.id, edge.id, ts.id)))
                else:
                    net = result.value_of(lp, ("flow", comp.id, edge.id, ts.id))
                sol.flows[(comp.id, edge.id, ts.id)] = net
                if totals is not None:
                    totals[u][t] += ratio * net
                    totals[v][t] -= ratio * net
        for n, node in enumerate(instance.nodes):
            for ts in instance.time_steps:
                key = ("ang", comp.id, node.id, ts.id)
                if lp.has_var(key):
                    sol.angles[(comp.id, node.id, ts.id)] = result.value_of(lp, key)
    for product in instance.products:
        for ts in instance.time_steps:
            sol.imports[(product.id, ts.id)] = result.value_of(lp, ("imp", product.id, ts.id))
    for b, totals in booked.items():
        for node, row in zip(instance.nodes, totals):
            for ts, total in zip(instance.time_steps, row):
                if total != 0.0:
                    sol.exports[(instance.products[b].id, node.id, ts.id)] = total

    capex_prod, capex_grid, opex, ghg = annual_cost_report(
        instance, sol.capacity_expansion, sol.grid_expansion, sol.production, sol.imports)
    sol.capex_prod, sol.capex_grid, sol.opex, sol.ghg = capex_prod, capex_grid, opex, ghg
    sol.tac = capex_prod + capex_grid + opex
    drift = abs(sol.tac - result.objective)
    if drift > 1e-7 * (1.0 + abs(sol.tac)):
        raise SolutionMismatchError(
            f"recomputed cost {sol.tac!r} disagrees with solver objective "
            f"{result.objective!r} (drift {drift:.3e})"
        )
    if math.isfinite(instance.ghg_limit) and sol.ghg > instance.ghg_limit + 1e-6 * (1.0 + instance.ghg_limit):
        raise SolutionMismatchError(
            f"emissions {sol.ghg!r} exceed the cap {instance.ghg_limit!r} on an optimal result"
        )
    return sol
