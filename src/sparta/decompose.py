"""Per-cluster redesign of an aggregated upper-bound solution.

The aggregated restriction fixes how much capacity each cluster gets but not
where inside the cluster it goes.  Redesign re-solves every cluster at full
nodal resolution with three pieces of the upper bound frozen in: the cluster's
total capacity addition per component (an equality budget), the flows on its
boundary edges per time step (constants injected at the true endpoint nodes),
and the cluster's realized emissions (its share of the system cap).  Internal
grid expansion stays free and costed.  Recombining the cluster solutions gives
a full-scale design; an operational check with every capacity frozen proves it
feasible, and when phase-angle coupling breaks that check, a final network
optimization with free grid expansion repairs it.

Each cluster LP is :func:`~sparta.full_model.build_full_lp` on a slice of the
instance, edited only where decomposition needs it (budgets, import ceilings,
a curtailable cluster balance).  Its result is therefore read and priced by
:func:`~sparta.solution.extract_solution` on that slice, which also checks the
cost and emissions against the solver, and the recombined design is priced by
:func:`~sparta.solution.annual_cost_report` like any full-scale solution.
The slices get no structural check of their own (the instance had its one
before the bound loop): a cluster whose folded-in demand its members cannot
serve comes back infeasible from its solve and raises
:class:`~sparta.lp.SubproblemError`.

Boundary bookkeeping is lossless: the fixed flow enters the member node at
full value, and no boundary loss term is charged inside the subproblem.  The
cluster-wide balance is therefore kept as an inequality (over-supply is
curtailed), which the upper-bound solution restricted to the cluster always
satisfies.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .bounds import AggregatedSolution
from .clustering import ClusterAssignment
from .full_model import build_full_lp
from .lp import (
    EQ,
    GE,
    LinearProgram,
    SolutionMismatchError,
    SolveResult,
    SubproblemError,
)
from .model import EnergySystemInstance
from .solution import SystemSolution, annual_cost_report, extract_solution

#: provenance marker for grid entries taken from the aggregated solution
#: because the edge crosses a cluster boundary
BOUNDARY = "boundary"

#: relative tolerance on capacity budget conservation after redesign
BUDGET_TOLERANCE = 1e-7


@dataclass
class ClusterSubproblem:
    """One cluster's full-resolution redesign LP plus the frozen context."""

    cluster: int
    members: tuple[str, ...]
    instance: EnergySystemInstance  # the cluster's slice that ``lp`` is built on
    capacity_budgets: dict[str, float]  # component id -> fixed total addition
    import_shares: dict[tuple[str, str], float]  # (product, step) -> ceiling
    ghg_budget: float
    lp: LinearProgram


@dataclass
class ClusterRedesign:
    """Solved redesign of one cluster."""

    cluster: int
    tac: float
    ghg: float
    capacity: dict[tuple[str, str], float]  # (component, node) -> addition
    internal_expansion: dict[tuple[str, str], float]  # (component, edge)
    production: dict[tuple[str, str, str], float]
    imports: dict[tuple[str, str], float]
    wall_time: float

    @property
    def expansion_added(self) -> float:
        """Total internal grid capacity added during the redesign."""
        return float(sum(self.internal_expansion.values()))


@dataclass
class FullDesign:
    """Recombined full-scale design with per-entry provenance.

    ``provenance`` maps ``("cap", component, node)`` to the cluster that
    placed the capacity and ``("gcap", component, edge)`` to the owning
    cluster for internal edges or :data:`BOUNDARY` for cross-cluster edges,
    whose capacities come from the aggregated solution unchanged.
    """

    capacity_expansion: dict[tuple[str, str], float] = field(default_factory=dict)
    grid_expansion: dict[tuple[str, str], float] = field(default_factory=dict)
    provenance: dict[tuple[str, str, str], int | str] = field(default_factory=dict)


def _cluster_instance(
    instance: EnergySystemInstance,
    assignment: ClusterAssignment,
    ub_solution: AggregatedSolution,
    cluster: int,
) -> EnergySystemInstance:
    """Slice one cluster out of the instance with boundary flows folded in.

    A fixed inflow reduces the receiving node's demand (possibly below zero,
    which the nodal balance reads as redistributable surplus); an outflow
    raises it.  System-wide secured capacity floors are dropped because the
    capacity budgets already pin each cluster's contribution.
    """
    members = assignment.clusters[cluster]
    positions = np.array([instance.node_index(m) for m in members])
    local_of = {m: i for i, m in enumerate(members)}
    internal_ids = set(assignment.internal_edges[cluster])
    internal = [e for e in instance.edges if e.id in internal_ids]
    edge_positions = np.array([instance.edge_index(e.id) for e in internal], dtype=int)

    demand = instance.demand[:, positions, :].copy()
    for eid in assignment.external_edges[cluster]:
        edge = instance.edges[instance.edge_index(eid)]
        inside = edge.node_b if assignment.cluster_of[edge.node_b] == cluster else edge.node_a
        sign = 1.0 if inside == edge.node_b else -1.0  # positive flow runs a -> b
        for comp in instance.grid_components:
            b, ratio = instance.grid_product(comp)
            for t, ts in enumerate(instance.time_steps):
                flow = ub_solution.external_flows.get((comp.id, eid, ts.id), 0.0)
                if flow != 0.0:
                    demand[b, local_of[inside], t] -= ratio * flow * sign

    products = tuple(
        dataclasses.replace(
            p,
            secured_capacity_system=None,
            secured_capacity_nodal=(
                None
                if p.secured_capacity_nodal is None
                else np.asarray(p.secured_capacity_nodal, dtype=float)[positions]
            ),
        )
        for p in instance.products
    )
    if len(edge_positions):
        existing_grid = instance.existing_grid[:, edge_positions, :]
    else:
        existing_grid = np.zeros((len(instance.grid_components), 0, instance.n_prior_years))
    ghg_budget = ub_solution.cluster_emissions.get(cluster, 0.0)
    return EnergySystemInstance(
        products=products,
        components=instance.components,
        nodes=tuple(instance.nodes[p] for p in positions),
        edges=tuple(internal),
        time_steps=instance.time_steps,
        years=instance.years,
        demand=demand,
        availability=instance.availability[:, positions, :],
        existing_production=instance.existing_production[:, positions, :],
        existing_grid=existing_grid,
        ghg_limit=ghg_budget if math.isfinite(instance.ghg_limit) else math.inf,
        interest_rate=instance.interest_rate,
    )


def _import_shares(
    instance: EnergySystemInstance,
    assignment: ClusterAssignment,
    ub_solution: AggregatedSolution,
    cluster: int,
) -> dict[tuple[str, str], float]:
    """Cluster's slice of the system imports, split by demand share."""
    positions = [instance.node_index(m) for m in assignment.clusters[cluster]]
    shares: dict[tuple[str, str], float] = {}
    for b, product in enumerate(instance.products):
        if not product.import_allowed:
            continue
        for t, ts in enumerate(instance.time_steps):
            total = ub_solution.imports.get((product.id, ts.id), 0.0)
            system_demand = float(instance.demand[b, :, t].sum())
            if system_demand > 0.0:
                local = float(instance.demand[b, positions, t].sum())
                shares[(product.id, ts.id)] = total * local / system_demand
            else:
                shares[(product.id, ts.id)] = total / assignment.k
    return shares


def build_cluster_subproblem(
    instance: EnergySystemInstance,
    assignment: ClusterAssignment,
    ub_solution: AggregatedSolution,
    cluster: int,
) -> ClusterSubproblem:
    """Full-resolution LP over one cluster with the aggregated design frozen.

    Capacity additions must sum to the cluster's aggregated value per
    component, boundary flows are constants, internal grid expansion stays
    free, and no merit-order caps apply (nodal resolution resolves dispatch).
    """
    sub = _cluster_instance(instance, assignment, ub_solution, cluster)
    lp = build_full_lp(sub, name=f"cluster-{cluster}")

    # over-supply from fixed boundary inflows is curtailable, so the cluster
    # balance cannot stay an equality
    for product in sub.products:
        for ts in sub.time_steps:
            lp.set_relation(("sysbal", product.id, ts.id), GE)

    shares = _import_shares(instance, assignment, ub_solution, cluster)
    for (pid, tsid), ceiling in shares.items():
        lp.set_variable_bounds(("imp", pid, tsid), ub=ceiling)

    budgets: dict[str, float] = {}
    for comp in sub.production_components:
        budget = max(ub_solution.capacity_expansion.get((comp.id, cluster), 0.0), 0.0)
        budgets[comp.id] = budget
        terms = [(lp.var_index(("cap", comp.id, m)), 1.0) for m in assignment.clusters[cluster]]
        lp.add_constraint(("budget", comp.id), terms, EQ, budget)

    return ClusterSubproblem(
        cluster=cluster,
        members=assignment.clusters[cluster],
        instance=sub,
        capacity_budgets=budgets,
        import_shares=shares,
        ghg_budget=sub.ghg_limit,
        lp=lp,
    )


def _solve_subproblem(subproblem: ClusterSubproblem, tol: float) -> ClusterRedesign:
    result = simplex.solve(subproblem.lp, tol)
    if not result.optimal:
        raise SubproblemError(
            f"cluster {subproblem.cluster}: redesign LP came back {result.status}; "
            "the aggregated restriction should have guaranteed feasibility"
        )
    try:
        sol = extract_solution(subproblem.instance, subproblem.lp, result)
    except SolutionMismatchError as exc:
        raise SolutionMismatchError(f"cluster {subproblem.cluster}: {exc}") from exc
    return ClusterRedesign(
        cluster=subproblem.cluster,
        tac=sol.tac,
        ghg=sol.ghg,
        capacity=sol.capacity_expansion,
        internal_expansion=sol.grid_expansion,
        production=sol.production,
        imports={key: sol.imports[key] for key in subproblem.import_shares},
        wall_time=result.wall_time,
    )


def redesign_all(
    instance: EnergySystemInstance,
    assignment: ClusterAssignment,
    ub_solution: AggregatedSolution,
    jobs: int | None = None,
    tol: float = 1e-7,
) -> tuple[FullDesign, list[ClusterRedesign]]:
    """Solve every cluster redesign and recombine into a full-scale design.

    Subproblems are independent, so they solve in parallel; the merge is
    deterministic by cluster id.  Budget conservation is re-checked on the
    solved capacities because the equality rows only hold up to solver
    tolerance.
    """
    clusters = sorted(assignment.clusters)
    subproblems = [
        build_cluster_subproblem(instance, assignment, ub_solution, a) for a in clusters
    ]
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(len(subproblems), jobs) if jobs is not None else len(subproblems)
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        redesigns = list(pool.map(lambda s: _solve_subproblem(s, tol), subproblems))

    design = FullDesign()
    for sub, redesign in zip(subproblems, redesigns):
        for comp_id, budget in sub.capacity_budgets.items():
            placed = sum(redesign.capacity[(comp_id, m)] for m in sub.members)
            if abs(placed - budget) > BUDGET_TOLERANCE * max(1.0, abs(budget)):
                raise SubproblemError(
                    f"cluster {sub.cluster}: component {comp_id!r} placed {placed}, "
                    f"budget was {budget}"
                )
        for (comp_id, node_id), value in redesign.capacity.items():
            design.capacity_expansion[(comp_id, node_id)] = value
            design.provenance[("cap", comp_id, node_id)] = redesign.cluster
        for (comp_id, edge_id), value in redesign.internal_expansion.items():
            design.grid_expansion[(comp_id, edge_id)] = value
            design.provenance[("gcap", comp_id, edge_id)] = redesign.cluster

    for comp in instance.grid_components:
        for edge in instance.edges:
            key = (comp.id, edge.id)
            if key not in design.grid_expansion:  # no cluster owns it
                design.grid_expansion[key] = ub_solution.grid_expansion.get(key, 0.0)
                design.provenance[("gcap",) + key] = BOUNDARY
    return design, redesigns


def redesign_tac(
    instance: EnergySystemInstance,
    design: FullDesign,
    redesigns: list[ClusterRedesign],
) -> float:
    """Total annual cost of the redesign phase.

    The recombined design is priced like any full-scale solution, with the
    clusters' production and their summed imports as its operation.  The
    cross-cluster edges, which no subproblem owns, enter with the aggregated
    expansion kept in the design.
    """
    production: dict[tuple[str, str, str], float] = {}
    imports: dict[tuple[str, str], float] = {}
    for r in redesigns:
        production.update(r.production)
        for key, value in r.imports.items():
            imports[key] = imports.get(key, 0.0) + value
    capex_prod, capex_grid, opex, _ghg = annual_cost_report(
        instance, design.capacity_expansion, design.grid_expansion, production, imports)
    return capex_prod + capex_grid + opex


def operational_check(
    instance: EnergySystemInstance,
    design: FullDesign,
    tol: float = 1e-7,
) -> tuple[SolveResult, SystemSolution | None]:
    """Re-solve the full network with every capacity frozen.

    An optimal result proves the recombined design feasible at full scale.
    Infeasibility is a legitimate outcome when phase-angle coupling routes
    flow into lines the clusters never saw, and hands over to
    :func:`network_optimization`.
    """
    lp = build_full_lp(
        instance,
        fix_production=design.capacity_expansion,
        fix_grid=design.grid_expansion,
        name="operational-check",
    )
    result = simplex.solve(lp, tol)
    solution = extract_solution(instance, lp, result) if result.optimal else None
    return result, solution


def network_optimization(
    instance: EnergySystemInstance,
    design: FullDesign,
    tol: float = 1e-7,
) -> SystemSolution:
    """Re-solve the full network with converters frozen and the grid free.

    This is the repair step after a failed operational check: production
    capacity is a parameter, grid expansion is optimized and costed.  With
    unbounded grid limits it is always feasible; under finite limits an
    infeasible outcome is reported with the cluster boundary that cannot
    carry its traffic.
    """
    lp = build_full_lp(
        instance,
        fix_production=design.capacity_expansion,
        name="network-optimization",
    )
    result = simplex.solve(lp, tol)
    if not result.optimal:
        raise SubproblemError(
            f"network optimization came back {result.status}: "
            + _cut_set_diagnosis(instance, design)
        )
    return extract_solution(instance, lp, result)


def _cut_set_diagnosis(instance: EnergySystemInstance, design: FullDesign) -> str:
    """Name the cluster boundary whose corridors cannot cover the deficit.

    Per cluster, product and time step, compare the worst-case local supply
    deficit under the frozen capacities against the combined ceiling of the
    boundary edges (existing plus remaining expansion headroom).
    """
    node_cluster: dict[str, int] = {}
    for (kind, _comp, node_id), owner in design.provenance.items():
        if kind == "cap" and isinstance(owner, int):
            node_cluster[node_id] = owner
    if not node_cluster:
        return "no cluster provenance available for a cut-set diagnosis"

    theta = instance.ratio_matrix()
    members: dict[int, list[int]] = {}
    for n, node in enumerate(instance.nodes):
        members.setdefault(node_cluster.get(node.id, -1), []).append(n)

    findings: list[str] = []
    for a, nodes in sorted(members.items()):
        if a == -1:
            continue
        for b, product in enumerate(instance.products):
            for t, ts in enumerate(instance.time_steps):
                need = float(instance.demand[b, nodes, t].sum())
                supply = 0.0
                for c, comp in enumerate(instance.production_components):
                    ratio = theta[b, c]
                    if ratio <= 0.0:
                        continue
                    for n in nodes:
                        node_id = instance.nodes[n].id
                        total = float(
                            instance.existing_production[c, n, :].sum()
                        ) + design.capacity_expansion.get((comp.id, node_id), 0.0)
                        supply += ratio * float(instance.availability[c, n, t]) * total
                deficit = need - supply
                if deficit <= 1e-9:
                    continue
                corridor = 0.0
                for g, comp in enumerate(instance.grid_components):
                    pb, ratio = instance.grid_product(comp)
                    if pb != b:
                        continue
                    for e, edge in enumerate(instance.edges):
                        ca = node_cluster.get(edge.node_a)
                        cb = node_cluster.get(edge.node_b)
                        if not ((ca == a) ^ (cb == a)):
                            continue
                        limit = instance.grid_cap_limit(comp, edge.id)
                        ceiling = limit if math.isfinite(limit) else math.inf
                        corridor += ratio * ceiling
                if deficit > corridor + 1e-9:
                    findings.append(
                        f"cluster {a} boundary cannot import enough {product.id!r} "
                        f"at {ts.id!r} (deficit {deficit:.6g}, corridor ceiling {corridor:.6g})"
                    )
    if findings:
        return "; ".join(findings)
    return "every cluster boundary has nominal corridor capacity; the binding cut is operational"
