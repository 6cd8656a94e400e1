"""Design LPs over a node clustering: the two aggregated bounds and the full LP.

The lower bound relaxes the full problem: each cluster behaves like one
well-connected node whose internal transport is free and unlimited, so the
optimum can only drop.  The upper bound restricts it: availability is the
worst across members, internal transport is dimensioned for the whole
cluster's peak flow at worst-case losses, and existing units may only run
where they beat the cheapest buildable producer, so an aggregated design
stays realizable after disaggregation.

At the identity partition, where every node is its own cluster, the
relaxation relaxes nothing: the lower-bound LP is the full-resolution LP.
:func:`sparta.full_model.build_full_lp` builds it that way, with each region
keyed by its node id instead of a cluster index.

The builders only assemble.  The structural checks of an instance
(:func:`check_reachability`, :func:`check_existing_within_limits`) live here
too, but they depend on the instance alone, so the entry points run them once
per instance before building anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .clustering import ClusterAssignment, assignment_from_labels, split_disconnected
from .lp import EQ, GE, LE, LinearProgram, SolveResult, StructurallyInfeasibleError
from .model import TRANSSHIPMENT, EnergySystemInstance

LOWER = "lower"
UPPER = "upper"


def _possible_producers(instance: EnergySystemInstance, theta: np.ndarray, b: int) -> np.ndarray:
    """Boolean mask over nodes where product ``b`` could ever be generated."""
    mask = np.zeros(instance.n_nodes, dtype=bool)
    for c, comp in enumerate(instance.production_components):
        if theta[b, c] <= 0.0:
            continue
        for n, node in enumerate(instance.nodes):
            if mask[n]:
                continue
            existing = float(instance.existing_production[c, n, :].sum())
            if existing > 0.0 or instance.production_cap_limit(comp, node.id) > 0.0:
                mask[n] = True
    return mask


def check_reachability(instance: EnergySystemInstance) -> None:
    """Reject demand that no producer or grid path could ever serve."""
    theta = instance.ratio_matrix()
    carried = {b for g in instance.grid_components for b in [instance.grid_product(g)[0]]}
    n_nodes = instance.n_nodes
    if instance.edges:
        rows = [instance.edge_endpoints(e)[0] for e in range(instance.n_edges)]
        cols = [instance.edge_endpoints(e)[1] for e in range(instance.n_edges)]
        adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n_nodes, n_nodes))
        _, labels = connected_components(adj, directed=False)
    else:
        labels = np.arange(n_nodes)

    problems: list[str] = []
    for b, product in enumerate(instance.products):
        demand_nodes = np.flatnonzero(instance.demand[b].max(axis=1) > 0.0)
        if demand_nodes.size == 0:
            continue
        producers = _possible_producers(instance, theta, b)
        if product.transportable and b in carried:
            reachable_labels = {labels[n] for n in np.flatnonzero(producers)}
            for n in demand_nodes:
                if labels[n] not in reachable_labels:
                    problems.append(
                        f"product {product.id!r}: demand at node {instance.nodes[n].id!r} "
                        "has no producer in its connected region"
                    )
        else:
            for n in demand_nodes:
                if not producers[n]:
                    problems.append(
                        f"product {product.id!r}: demand at node {instance.nodes[n].id!r} "
                        "has no local producer and no grid carries the product"
                    )
    if problems:
        raise StructurallyInfeasibleError("; ".join(problems))


def check_existing_within_limits(instance: EnergySystemInstance) -> None:
    """Reject legacy capacity that already violates an expansion limit."""
    for c, comp in enumerate(instance.production_components):
        total = 0.0
        for n, node in enumerate(instance.nodes):
            existing = float(instance.existing_production[c, n, :].sum())
            total += existing
            if existing > instance.production_cap_limit(comp, node.id) + 1e-9:
                raise StructurallyInfeasibleError(
                    f"component {comp.id!r}: existing capacity at {node.id!r} exceeds its nodal limit"
                )
        if comp.system_capacity_limit is not None and total > comp.system_capacity_limit + 1e-9:
            raise StructurallyInfeasibleError(
                f"component {comp.id!r}: existing capacity exceeds the system-wide limit"
            )
    for g, comp in enumerate(instance.grid_components):
        total = 0.0
        for e, edge in enumerate(instance.edges):
            existing = float(instance.existing_grid[g, e, :].sum())
            total += existing
            if existing > instance.grid_cap_limit(comp, edge.id) + 1e-9:
                raise StructurallyInfeasibleError(
                    f"component {comp.id!r}: existing capacity on edge {edge.id!r} exceeds its limit"
                )
        if comp.system_capacity_limit is not None and total > comp.system_capacity_limit + 1e-9:
            raise StructurallyInfeasibleError(
                f"component {comp.id!r}: existing grid capacity exceeds the system-wide limit"
            )


@dataclass(frozen=True)
class AggregatedInstance:
    """Cluster-level parameters: exact sums plus kind-dependent availability."""

    base: EnergySystemInstance
    assignment: ClusterAssignment
    bound_kind: str
    existing_production: np.ndarray  # (production component, cluster, prior year)
    demand: np.ndarray               # (product, cluster, time step)
    availability: np.ndarray         # (production component, cluster, time step)
    capacity_limits: np.ndarray      # (production component, cluster)

    @property
    def k(self) -> int:
        return self.assignment.k


@dataclass(frozen=True)
class MeritOrderTable:
    """How much existing capacity stays dispatchable under the cost cutoff."""

    usable_share: np.ndarray             # (production component, node, time step)
    reference_op_cost: dict[str, float]  # product id -> cheapest buildable op cost


@dataclass(frozen=True)
class SecuredCapacityGap:
    """Per-node shortfalls that new local capacity must close."""

    firm_shortfall: np.ndarray  # (product, node): secured floor minus firm existing
    peak_shortfall: np.ndarray  # (product, node): peak demand minus usable existing


def _member_positions(instance: EnergySystemInstance,
                      assignment: ClusterAssignment) -> dict[int, np.ndarray]:
    return {a: np.array([instance.node_index(nid) for nid in members], dtype=int)
            for a, members in assignment.clusters.items()}


def aggregate_parameters(instance: EnergySystemInstance, assignment: ClusterAssignment,
                         bound_kind: str) -> AggregatedInstance:
    """Sum existing capacity, demand and limits per cluster; pick extreme availability."""
    if bound_kind not in (LOWER, UPPER):
        raise ValueError(f"unknown bound kind {bound_kind!r}")
    members = _member_positions(instance, assignment)
    k = assignment.k
    n_prod = len(instance.production_components)
    existing = np.zeros((n_prod, k, instance.n_prior_years))
    demand = np.zeros((instance.n_products, k, instance.n_time_steps))
    availability = np.zeros((n_prod, k, instance.n_time_steps))
    limits = np.zeros((n_prod, k))
    pick = np.max if bound_kind == LOWER else np.min
    for a, pos in members.items():
        existing[:, a, :] = instance.existing_production[:, pos, :].sum(axis=1)
        demand[:, a, :] = instance.demand[:, pos, :].sum(axis=1)
        availability[:, a, :] = pick(instance.availability[:, pos, :], axis=1)
        for c, comp in enumerate(instance.production_components):
            limits[c, a] = sum(instance.production_cap_limit(comp, instance.nodes[p].id)
                               for p in pos)
    return AggregatedInstance(base=instance, assignment=assignment, bound_kind=bound_kind,
                              existing_production=existing, demand=demand,
                              availability=availability, capacity_limits=limits)


def _buildable_production(instance: EnergySystemInstance) -> np.ndarray:
    """Which production components still have expansion headroom somewhere."""
    out = np.zeros(len(instance.production_components), dtype=bool)
    for c, comp in enumerate(instance.production_components):
        total = float(instance.existing_production[c].sum())
        if comp.system_capacity_limit is not None and comp.system_capacity_limit - total <= 1e-9:
            continue
        for n, node in enumerate(instance.nodes):
            held = float(instance.existing_production[c, n, :].sum())
            if instance.production_cap_limit(comp, node.id) - held > 1e-9:
                out[c] = True
                break
    return out


def merit_order(instance: EnergySystemInstance) -> MeritOrderTable:
    """Dispatchable share of existing units under the cheapest-buildable cutoff.

    For every locally bound product, existing units costlier to run than the
    cheapest producer that could still be built get share 0; the rest fill
    the node's own demand in ascending cost order.  This keeps the upper
    bound from serving one node's demand with another node's old plant.
    """
    theta = instance.ratio_matrix()
    prods = instance.production_components
    buildable = _buildable_production(instance)
    omega = np.ones((len(prods), instance.n_nodes, instance.n_time_steps))
    reference: dict[str, float] = {}
    for b, product in enumerate(instance.products):
        if product.transportable:
            continue
        candidates = [comp.op_cost for c, comp in enumerate(prods)
                      if buildable[c] and theta[b, c] > 0.0]
        cutoff = min(candidates) if candidates else math.inf
        reference[product.id] = cutoff
        order = sorted((c for c in range(len(prods)) if theta[b, c] > 0.0),
                       key=lambda c: (prods[c].op_cost, c))
        for n in range(instance.n_nodes):
            held = instance.existing_production[:, n, :].sum(axis=1)
            for t in range(instance.n_time_steps):
                remaining = float(instance.demand[b, n, t])
                for c in order:
                    usable = float(instance.availability[c, n, t]) * theta[b, c] * float(held[c])
                    if usable <= 0.0 or prods[c].op_cost > cutoff + 1e-12:
                        share = 0.0
                    else:
                        share = min(remaining, usable) / usable
                        remaining -= share * usable
                    omega[c, n, t] = min(omega[c, n, t], share)
    return MeritOrderTable(usable_share=omega, reference_op_cost=reference)


def _usable_existing_output(instance: EnergySystemInstance,
                            merit: MeritOrderTable) -> np.ndarray:
    """Merit-allocated output of existing units, (product, node, time step)."""
    theta = instance.ratio_matrix()
    out = np.zeros((instance.n_products, instance.n_nodes, instance.n_time_steps))
    for b, product in enumerate(instance.products):
        if product.transportable:
            continue
        for c in range(len(instance.production_components)):
            if theta[b, c] <= 0.0:
                continue
            held = instance.existing_production[c].sum(axis=1)  # per node
            out[b] += (theta[b, c] * merit.usable_share[c]
                       * instance.availability[c] * held[:, None])
    return out


def _firm_shortfall(instance: EnergySystemInstance) -> np.ndarray:
    """(product, node): secured nodal floor minus the firm output of existing units."""
    theta = instance.ratio_matrix()
    prods = instance.production_components
    firm = np.zeros((instance.n_products, instance.n_nodes))
    for b, product in enumerate(instance.products):
        floors = product.secured_capacity_nodal
        for n in range(instance.n_nodes):
            floor = float(floors[n]) if floors is not None else 0.0
            held = sum(prods[c].capacity_factor * theta[b, c]
                       * float(instance.existing_production[c, n, :].sum())
                       for c in range(len(prods)) if theta[b, c] > 0.0)
            firm[b, n] = floor - held
    return firm


def secured_gaps(instance: EnergySystemInstance, merit: MeritOrderTable) -> SecuredCapacityGap:
    """Firm-capacity and peak-demand shortfalls per node.

    firm_shortfall is left unclamped so callers can see surpluses; rows built
    from it clamp at zero.  peak_shortfall already carries its outer clamp.
    """
    peak = np.zeros((instance.n_products, instance.n_nodes))
    usable = _usable_existing_output(instance, merit)
    for b, product in enumerate(instance.products):
        if not product.transportable:
            peak[b] = np.maximum(instance.demand[b] - usable[b], 0.0).max(axis=1)
    return SecuredCapacityGap(firm_shortfall=_firm_shortfall(instance), peak_shortfall=peak)


def build_lb_lp(instance: EnergySystemInstance,
                assignment: ClusterAssignment) -> LinearProgram:
    """Relaxed cluster-level design LP; its optimum never exceeds full scale."""
    return _AggregatedBuilder(instance, assignment, LOWER).build()


def build_ub_lp(instance: EnergySystemInstance,
                assignment: ClusterAssignment) -> LinearProgram:
    """Restricted cluster-level design LP; its optimum never undercuts full scale.

    Internal transport losses are charged additively: every internal edge as
    if it carried the cluster's whole peak flow, which covers the full
    model's per-edge losses even on serial chains fed from one end.
    """
    return _AggregatedBuilder(instance, assignment, UPPER).build()


class _AggregatedBuilder:
    """Shared construction of the two aggregated LPs and of the full LP.

    The skeleton (capacity, production, imports, external transport, balance
    and limit rows) is common; the bound kind decides availability semantics,
    whether internal edges exist at all, and the extra upper-bound guards.
    ``assignment=None`` stands for the identity partition with every region
    keyed by its node id: the lower-bound build of it is the full LP.
    """

    def __init__(self, instance: EnergySystemInstance, assignment: ClusterAssignment | None,
                 bound_kind: str):
        # region keys and the names of the two per-region floor rows
        if assignment is None:  # singletons are connected, no split check needed
            assignment = assignment_from_labels(instance, np.arange(instance.n_nodes))
            self.label = {a: node.id for a, node in enumerate(instance.nodes)}
            self.balance_row, self.secured_row = "nodal", "secnod"
        elif split_disconnected(instance, assignment) != assignment:
            raise ValueError("cluster assignment must be connectivity-split first")
        else:
            self.label = {a: a for a in assignment.clusters}
            self.balance_row, self.secured_row = "clbal", "secagg"
        self.inst = instance
        self.assign = assignment
        self.kind = bound_kind
        self.agg = aggregate_parameters(instance, assignment, bound_kind)
        self.theta = instance.ratio_matrix()
        self.weights = np.array([ts.weight for ts in instance.time_steps])
        self.cluster_ids = tuple(sorted(assignment.clusters))
        self.members = _member_positions(instance, assignment)
        self.cluster_of_pos = [assignment.cluster_of[node.id] for node in instance.nodes]
        self.internal: dict[int, list[int]] = {a: [] for a in self.cluster_ids}
        self.external: list[int] = []
        # external edges at each cluster, +1 where the cluster holds the a-end
        self.boundary: dict[int, list[tuple[int, float]]] = {a: [] for a in self.cluster_ids}
        for e in range(instance.n_edges):
            u, v = instance.edge_endpoints(e)
            ca, cb = self.cluster_of_pos[u], self.cluster_of_pos[v]
            if ca == cb:
                self.internal[ca].append(e)
            else:
                self.external.append(e)
                self.boundary[ca].append((e, 1.0))
                self.boundary[cb].append((e, -1.0))
        self.singletons = all(len(m) == 1 for m in assignment.clusters.values())
        self.dc_coupling = bound_kind == UPPER or self.singletons
        # grid components carrying each product, with their conversion ratio
        self.carriers: dict[int, list[tuple[int, float]]] = {}
        for g, comp in enumerate(instance.grid_components):
            pb, ratio = instance.grid_product(comp)
            self.carriers.setdefault(pb, []).append((g, ratio))
        if bound_kind == UPPER:
            self.merit = merit_order(instance)
            self.gaps = secured_gaps(instance, self.merit)
            self.usable = _usable_existing_output(instance, self.merit)
            self.firm_shortfall = self.gaps.firm_shortfall
        else:  # the relaxation reads none of the merit order
            self.firm_shortfall = _firm_shortfall(instance)
        # transportable products whose internal flows the restriction must guard
        self.guarded = {b for b, p in enumerate(instance.products)
                        if p.transportable and self.carriers.get(b)}
        self.lp = LinearProgram(name=f"{bound_kind}-k{assignment.k}")

    def build(self) -> LinearProgram:
        self._add_variables()
        self._add_balance_rows()
        self._add_transport_rows()
        self._add_secured_rows()
        self._add_system_limit_rows()
        if self.kind == UPPER:
            self._add_flow_concentration_rows()
            self._add_merit_rows()
            self._add_expansion_need_rows()
        self._add_ghg_row()
        return self.lp

    # -- cluster geometry helpers -------------------------------------------

    def _grid_edge_positions(self) -> list[int]:
        if self.kind == LOWER:
            return list(self.external)  # internal transport is free, nothing to expand
        return list(range(self.inst.n_edges))

    def _flow_terms(self, comp, edge_id: str, ts_id: str) -> list[tuple[int, float]]:
        if comp.transport_mode == TRANSSHIPMENT:
            return [(self.lp.var_index(("fp", comp.id, edge_id, ts_id)), 1.0),
                    (self.lp.var_index(("fm", comp.id, edge_id, ts_id)), -1.0)]
        return [(self.lp.var_index(("flow", comp.id, edge_id, ts_id)), 1.0)]

    def _serves_local_product(self, c: int) -> bool:
        return any(not p.transportable and self.theta[b, c] > 0.0
                   for b, p in enumerate(self.inst.products))

    def _loss_fraction(self, b: int, a: int) -> float:
        """Worst-case share of the cluster's peak flow lost to internal transport.

        Every internal edge is charged as if it carried the whole peak, so the
        sum covers the per-edge losses of any route through the cluster.
        """
        worst_eta = min((1.0 if comp.transport_mode != TRANSSHIPMENT else comp.grid_efficiency
                         for comp in (self.inst.grid_components[g] for g, _ in self.carriers[b])),
                        default=1.0)
        return sum((1.0 - worst_eta) * self.inst.edges[e].length for e in self.internal[a])

    def _internal_existing(self, b: int, edge_pos: int) -> float:
        """Existing transport capacity on one edge, in product units."""
        return sum(ratio * float(self.inst.existing_grid[g, edge_pos, :].sum())
                   for g, ratio in self.carriers.get(b, ()))

    # -- variables -----------------------------------------------------------

    def _add_variables(self) -> None:
        inst, lp, agg, lab = self.inst, self.lp, self.agg, self.label
        y_now = inst.n_prior_years
        lp.objective_constant = inst.existing_capex()
        for c, comp in enumerate(inst.production_components):
            annual = inst.annualized_invest(comp, y_now)
            for a in self.cluster_ids:
                held = float(agg.existing_production[c, a, :].sum())
                limit = agg.capacity_limits[c, a]
                ub = limit - held if math.isfinite(limit) else math.inf
                lp.add_variable(("cap", comp.id, lab[a]), lb=0.0, ub=max(ub, 0.0), obj=annual)
        for g, comp in enumerate(inst.grid_components):
            annual = inst.annualized_invest(comp, y_now)
            for e in self._grid_edge_positions():
                edge = inst.edges[e]
                held = float(inst.existing_grid[g, e, :].sum())
                limit = inst.grid_cap_limit(comp, edge.id)
                ub = limit - held if math.isfinite(limit) else math.inf
                lp.add_variable(("gcap", comp.id, edge.id), lb=0.0, ub=max(ub, 0.0),
                                obj=annual * edge.length)
        for c, comp in enumerate(inst.production_components):
            for a in self.cluster_ids:
                for t, ts in enumerate(inst.time_steps):
                    lp.add_variable(("prod", comp.id, lab[a], ts.id),
                                    obj=comp.op_cost * self.weights[t])
        for b, product in enumerate(inst.products):
            for t, ts in enumerate(inst.time_steps):
                cost = (float(product.import_cost[t]) * self.weights[t]
                        if product.import_allowed else 0.0)
                lp.add_variable(("imp", product.id, ts.id),
                                ub=math.inf if product.import_allowed else 0.0, obj=cost)
        for comp in inst.grid_components:
            if comp.transport_mode == TRANSSHIPMENT:
                for e in self.external:
                    for ts in inst.time_steps:
                        lp.add_variable(("fp", comp.id, inst.edges[e].id, ts.id))
                        lp.add_variable(("fm", comp.id, inst.edges[e].id, ts.id))
            else:
                for e in self.external:
                    for ts in inst.time_steps:
                        lp.add_variable(("flow", comp.id, inst.edges[e].id, ts.id),
                                        lb=-math.inf, ub=math.inf)
                if self.dc_coupling:
                    touched = [a for a in self.cluster_ids if self.boundary[a]]
                    for a in touched:  # one pinned reference angle removes the null space
                        lo, hi = (0.0, 0.0) if a == touched[0] else (-math.inf, math.inf)
                        for ts in inst.time_steps:
                            lp.add_variable(("ang", comp.id, lab[a], ts.id), lb=lo, ub=hi)
        if self.kind == UPPER:
            self._add_upper_bound_variables()

    def _add_upper_bound_variables(self) -> None:
        inst, lp, lab = self.inst, self.lp, self.label
        for b in sorted(self.guarded):
            product = inst.products[b]
            for a in self.cluster_ids:
                if not self.internal[a]:
                    continue
                lp.add_variable(("mflow", product.id, lab[a]))
                for ts in inst.time_steps:
                    lp.add_variable(("fmax", product.id, lab[a], ts.id))
                for g, _ in self.carriers[b]:
                    comp = inst.grid_components[g]
                    for e, _ in self.boundary[a]:
                        for ts in inst.time_steps:
                            lp.add_variable(("epos", comp.id, inst.edges[e].id, lab[a], ts.id))
        for b, product in enumerate(inst.products):
            if product.transportable:
                continue
            for a in self.cluster_ids:
                pos = self.members[a]
                if len(pos) < 2:
                    continue  # nodal resolution is exact, no guard needed
                for n in pos:
                    node = inst.nodes[n]
                    floor = max(0.0, float(self.gaps.firm_shortfall[b, n]),
                                float(self.gaps.peak_shortfall[b, n]))
                    lp.add_variable(("need", product.id, node.id), lb=floor)

    # -- shared rows -----------------------------------------------------------

    def _add_balance_rows(self) -> None:
        inst, lp, agg, lab = self.inst, self.lp, self.agg, self.label

        for c, comp in enumerate(inst.production_components):
            for a in self.cluster_ids:
                held = float(agg.existing_production[c, a, :].sum())
                cap_col = lp.var_index(("cap", comp.id, lab[a]))
                for t, ts in enumerate(inst.time_steps):
                    alpha = float(agg.availability[c, a, t])
                    lp.add_constraint(("avail", comp.id, lab[a], ts.id),
                                      [(lp.var_index(("prod", comp.id, lab[a], ts.id)), 1.0),
                                       (cap_col, -alpha)], LE, alpha * held)

        for b, product in enumerate(inst.products):
            machinery = self.kind == UPPER and b in self.guarded
            for t, ts in enumerate(inst.time_steps):
                coeffs: list[tuple[int, float]] = []
                for c, comp in enumerate(inst.production_components):
                    ratio = self.theta[b, c]
                    if ratio == 0.0:
                        continue
                    for a in self.cluster_ids:
                        coeffs.append((lp.var_index(("prod", comp.id, lab[a], ts.id)), ratio))
                coeffs.append((lp.var_index(("imp", product.id, ts.id)), 1.0))
                for g, ratio in self.carriers.get(b, ()):
                    comp = inst.grid_components[g]
                    if comp.transport_mode != TRANSSHIPMENT:
                        continue
                    for e in self.external:
                        loss = ratio * (1.0 - comp.grid_efficiency) * inst.edges[e].length
                        if loss == 0.0:
                            continue
                        eid = inst.edges[e].id
                        coeffs.append((lp.var_index(("fp", comp.id, eid, ts.id)), -loss))
                        coeffs.append((lp.var_index(("fm", comp.id, eid, ts.id)), -loss))
                if machinery:
                    for a in self.cluster_ids:
                        if not self.internal[a]:
                            continue
                        fraction = self._loss_fraction(b, a)
                        if fraction > 0.0:
                            coeffs.append(
                                (lp.var_index(("fmax", product.id, lab[a], ts.id)), -fraction))
                lp.add_constraint(("sysbal", product.id, ts.id), coeffs, EQ,
                                  float(agg.demand[b, :, t].sum()))

        for b, product in enumerate(inst.products):
            machinery = self.kind == UPPER and b in self.guarded
            for a in self.cluster_ids:
                for t, ts in enumerate(inst.time_steps):
                    coeffs = []
                    for c, comp in enumerate(inst.production_components):
                        ratio = self.theta[b, c]
                        if ratio != 0.0:
                            coeffs.append((lp.var_index(("prod", comp.id, lab[a], ts.id)), ratio))
                    if product.transportable:
                        for g, ratio in self.carriers.get(b, ()):
                            comp = inst.grid_components[g]
                            for e, dirn in self.boundary[a]:
                                for col, sign in self._flow_terms(comp, inst.edges[e].id, ts.id):
                                    coeffs.append((col, -ratio * dirn * sign))
                    if machinery and self.internal[a]:
                        fraction = self._loss_fraction(b, a)
                        if fraction > 0.0:
                            coeffs.append(
                                (lp.var_index(("fmax", product.id, lab[a], ts.id)), -fraction))
                    rhs = float(agg.demand[b, a, t])
                    if rhs <= 0.0 and all(value >= 0.0 for _, value in coeffs):
                        continue  # vacuous row
                    lp.add_constraint((self.balance_row, product.id, lab[a], ts.id),
                                      coeffs, GE, rhs)

    def _add_transport_rows(self) -> None:
        inst, lp, lab, cluster_of = self.inst, self.lp, self.label, self.cluster_of_pos
        dc_groups: dict[tuple[int, frozenset[int]], list[int]] = {}
        for g, comp in enumerate(inst.grid_components):
            if comp.transport_mode == TRANSSHIPMENT:
                continue
            for e in self.external:
                pair = frozenset(cluster_of[p] for p in inst.edge_endpoints(e))
                dc_groups.setdefault((g, pair), []).append(e)

        for g, comp in enumerate(inst.grid_components):
            for e in self.external:
                edge = inst.edges[e]
                held = float(inst.existing_grid[g, e, :].sum())
                gcap_col = lp.var_index(("gcap", comp.id, edge.id))
                u, v = inst.edge_endpoints(e)
                for ts in inst.time_steps:
                    if comp.transport_mode == TRANSSHIPMENT:
                        fp = lp.var_index(("fp", comp.id, edge.id, ts.id))
                        fm = lp.var_index(("fm", comp.id, edge.id, ts.id))
                        lp.add_constraint(("gflow", comp.id, edge.id, ts.id),
                                          [(fp, 1.0), (fm, 1.0), (gcap_col, -1.0)], LE, held)
                        continue
                    flow = lp.var_index(("flow", comp.id, edge.id, ts.id))
                    if self.kind == UPPER:
                        # parallel lines between the same cluster pair share
                        # their combined capacity, removing flow inhibition
                        group = dc_groups[(g, frozenset((cluster_of[u], cluster_of[v])))]
                        caps = [(lp.var_index(("gcap", comp.id, inst.edges[o].id)), -1.0)
                                for o in group]
                        pooled = sum(float(inst.existing_grid[g, o, :].sum()) for o in group)
                    else:
                        caps = [(gcap_col, -1.0)]
                        pooled = held
                    lp.add_constraint(("gflow+", comp.id, edge.id, ts.id),
                                      [(flow, 1.0)] + caps, LE, pooled)
                    lp.add_constraint(("gflow-", comp.id, edge.id, ts.id),
                                      [(flow, -1.0)] + caps, LE, pooled)
                    if self.dc_coupling:
                        s = comp.susceptance_per_line
                        ang_u = lp.var_index(("ang", comp.id, lab[cluster_of[u]], ts.id))
                        ang_v = lp.var_index(("ang", comp.id, lab[cluster_of[v]], ts.id))
                        lp.add_constraint(("dc", comp.id, edge.id, ts.id),
                                          [(flow, 1.0), (ang_u, -s), (ang_v, s)], EQ, 0.0)

    def _add_secured_rows(self) -> None:
        inst, lp, lab = self.inst, self.lp, self.label
        for b, product in enumerate(inst.products):
            firm_terms: list[tuple[int, float]] = []
            firm_existing = 0.0
            for c, comp in enumerate(inst.production_components):
                ratio = self.theta[b, c]
                if ratio <= 0.0 or comp.capacity_factor == 0.0:
                    continue
                for a in self.cluster_ids:
                    firm_terms.append((lp.var_index(("cap", comp.id, lab[a])),
                                       comp.capacity_factor * ratio))
                    firm_existing += (comp.capacity_factor * ratio
                                      * float(self.agg.existing_production[c, a, :].sum()))
            if product.secured_capacity_system is not None:
                lp.add_constraint(("secsys", product.id), firm_terms, GE,
                                  product.secured_capacity_system - firm_existing)
            if product.transportable:
                continue
            for a in self.cluster_ids:
                needed = sum(max(0.0, float(self.firm_shortfall[b, n]))
                             for n in self.members[a])
                if needed <= 0.0:
                    continue
                terms = [(lp.var_index(("cap", comp.id, lab[a])),
                          comp.capacity_factor * self.theta[b, c])
                         for c, comp in enumerate(inst.production_components)
                         if self.theta[b, c] > 0.0 and comp.capacity_factor > 0.0]
                lp.add_constraint((self.secured_row, product.id, lab[a]), terms, GE, needed)

    def _add_system_limit_rows(self) -> None:
        inst, lp = self.inst, self.lp
        for c, comp in enumerate(inst.production_components):
            if comp.system_capacity_limit is None:
                continue
            held = float(inst.existing_production[c].sum())
            terms = [(lp.var_index(("cap", comp.id, self.label[a])), 1.0)
                     for a in self.cluster_ids]
            lp.add_constraint(("syscap", comp.id), terms, LE,
                              comp.system_capacity_limit - held)
        for g, comp in enumerate(inst.grid_components):
            if comp.system_capacity_limit is None:
                continue
            held = float(inst.existing_grid[g].sum())
            terms = [(lp.var_index(("gcap", comp.id, inst.edges[e].id)), 1.0)
                     for e in self._grid_edge_positions()]
            lp.add_constraint(("syscap", comp.id), terms, LE,
                              comp.system_capacity_limit - held)

    def _add_ghg_row(self) -> None:
        inst, lp = self.inst, self.lp
        if not math.isfinite(inst.ghg_limit):
            return
        coeffs = []
        for c, comp in enumerate(inst.production_components):
            if comp.op_emission == 0.0:
                continue
            for a in self.cluster_ids:
                for t, ts in enumerate(inst.time_steps):
                    coeffs.append((lp.var_index(("prod", comp.id, self.label[a], ts.id)),
                                   comp.op_emission * self.weights[t]))
        lp.add_constraint(("ghg",), coeffs, LE, inst.ghg_limit)

    # -- upper-bound guards ------------------------------------------------------

    def _add_flow_concentration_rows(self) -> None:
        """Peak internal flow, worst-case losses, and forced reinforcement."""
        inst, lp, agg, lab = self.inst, self.lp, self.agg, self.label
        for b in sorted(self.guarded):
            product = inst.products[b]
            consumers = [c for c in range(len(inst.production_components))
                         if self.theta[b, c] < 0.0]
            for a in self.cluster_ids:
                if not self.internal[a]:
                    continue
                mflow = lp.var_index(("mflow", product.id, lab[a]))
                for t, ts in enumerate(inst.time_steps):
                    fmax = lp.var_index(("fmax", product.id, lab[a], ts.id))
                    coeffs = [(fmax, 1.0)]
                    for c in consumers:
                        comp = inst.production_components[c]
                        coeffs.append((lp.var_index(("prod", comp.id, lab[a], ts.id)),
                                       self.theta[b, c]))
                    for g, ratio in self.carriers[b]:
                        comp = inst.grid_components[g]
                        for e, dirn in self.boundary[a]:
                            eid = inst.edges[e].id
                            epos = lp.var_index(("epos", comp.id, eid, lab[a], ts.id))
                            coeffs.append((epos, -1.0))
                            terms = [(col, ratio * dirn * sign)
                                     for col, sign in self._flow_terms(comp, eid, ts.id)]
                            lp.add_constraint(("eposdef", comp.id, eid, lab[a], ts.id),
                                              [(epos, 1.0)] + [(col, -val)
                                                               for col, val in terms],
                                              GE, 0.0)
                    lp.add_constraint(("fmaxdef", product.id, lab[a], ts.id), coeffs, GE,
                                      float(agg.demand[b, a, t]))
                    lp.add_constraint(("mpeak", product.id, lab[a], ts.id),
                                      [(mflow, 1.0), (fmax, -1.0)], GE, 0.0)
                for e in self.internal[a]:
                    held = self._internal_existing(b, e)
                    terms = [(lp.var_index(("gcap", inst.grid_components[g].id,
                                            inst.edges[e].id)), ratio)
                             for g, ratio in self.carriers[b]]
                    lp.add_constraint(("intexp", product.id, inst.edges[e].id),
                                      terms + [(mflow, -1.0)], GE, -held)

    def _add_merit_rows(self) -> None:
        """Existing units in multi-node clusters run only up to their usable share."""
        inst, lp, agg, lab = self.inst, self.lp, self.agg, self.label
        for c, comp in enumerate(inst.production_components):
            if not self._serves_local_product(c):
                continue
            for a in self.cluster_ids:
                pos = self.members[a]
                if len(pos) < 2:
                    continue
                cap_col = lp.var_index(("cap", comp.id, lab[a]))
                for t, ts in enumerate(inst.time_steps):
                    usable = sum(float(self.merit.usable_share[c, n, t])
                                 * float(inst.availability[c, n, t])
                                 * float(inst.existing_production[c, n, :].sum())
                                 for n in pos)
                    alpha = float(agg.availability[c, a, t])
                    lp.add_constraint(("merit", comp.id, lab[a], ts.id),
                                      [(lp.var_index(("prod", comp.id, lab[a], ts.id)), 1.0),
                                       (cap_col, -alpha)], LE, usable)

    def _add_expansion_need_rows(self) -> None:
        """Every node's residual need must be buildable inside its own cluster."""
        inst, lp, lab = self.inst, self.lp, self.label
        for b, product in enumerate(inst.products):
            if product.transportable:
                continue
            consumers = [c for c in range(len(inst.production_components))
                         if self.theta[b, c] < 0.0]
            for a in self.cluster_ids:
                pos = self.members[a]
                if len(pos) < 2:
                    continue
                scale = float(len(pos))
                for n in pos:
                    node = inst.nodes[n]
                    if not consumers:
                        continue  # the variable's lower bound already covers it
                    need = lp.var_index(("need", product.id, node.id))
                    for t, ts in enumerate(inst.time_steps):
                        rhs = float(inst.demand[b, n, t]) - float(self.usable[b, n, t])
                        coeffs = [(need, 1.0)]
                        for c in consumers:
                            comp = inst.production_components[c]
                            coeffs.append((lp.var_index(("prod", comp.id, lab[a], ts.id)),
                                           scale * self.theta[b, c]))
                        lp.add_constraint(("peakneed", product.id, node.id, ts.id),
                                          coeffs, GE, rhs)
                terms = []
                for c, comp in enumerate(inst.production_components):
                    ratio = self.theta[b, c]
                    if ratio <= 0.0:
                        continue
                    firm = min(comp.capacity_factor,
                               float(self.agg.availability[c, a, :].min()))
                    if firm > 0.0:
                        terms.append((lp.var_index(("cap", comp.id, lab[a])), firm * ratio))
                needs = [(lp.var_index(("need", product.id, inst.nodes[n].id)), -1.0)
                         for n in pos]
                lp.add_constraint(("newcap", product.id, lab[a]), terms + needs, GE, 0.0)


@dataclass
class AggregatedSolution:
    """Design and operation of one aggregated LP, keyed by cluster index."""

    tac: float
    capacity_expansion: dict[tuple[str, int], float]
    grid_expansion: dict[tuple[str, str], float]
    external_flows: dict[tuple[str, str, str], float]
    imports: dict[tuple[str, str], float]
    cluster_emissions: dict[int, float]
    ghg: float


def extract_aggregated_solution(instance: EnergySystemInstance,
                                assignment: ClusterAssignment,
                                lp: LinearProgram,
                                result: SolveResult) -> AggregatedSolution:
    """Pull the cluster-level design out of a solved bounding LP."""
    if not result.optimal:
        raise ValueError(f"cannot extract from a result with status {result.status!r}")
    cluster_of = {nid: a for nid, a in assignment.cluster_of.items()}
    capacity: dict[tuple[str, int], float] = {}
    emissions = {a: 0.0 for a in assignment.clusters}
    for comp in instance.production_components:
        for a in assignment.clusters:
            capacity[(comp.id, a)] = result.value_of(lp, ("cap", comp.id, a))
            for t, ts in enumerate(instance.time_steps):
                level = result.value_of(lp, ("prod", comp.id, a, ts.id))
                emissions[a] += comp.op_emission * ts.weight * level
    grid: dict[tuple[str, str], float] = {}
    flows: dict[tuple[str, str, str], float] = {}
    for comp in instance.grid_components:
        for e, edge in enumerate(instance.edges):
            grid[(comp.id, edge.id)] = result.value_of(lp, ("gcap", comp.id, edge.id))
            u, v = instance.edge_endpoints(e)
            if cluster_of[instance.nodes[u].id] == cluster_of[instance.nodes[v].id]:
                continue
            for ts in instance.time_steps:
                if comp.transport_mode == TRANSSHIPMENT:
                    net = (result.value_of(lp, ("fp", comp.id, edge.id, ts.id))
                           - result.value_of(lp, ("fm", comp.id, edge.id, ts.id)))
                else:
                    net = result.value_of(lp, ("flow", comp.id, edge.id, ts.id))
                flows[(comp.id, edge.id, ts.id)] = net
    imports = {(product.id, ts.id): result.value_of(lp, ("imp", product.id, ts.id))
               for product in instance.products if product.import_allowed
               for ts in instance.time_steps}
    return AggregatedSolution(tac=result.objective, capacity_expansion=capacity,
                              grid_expansion=grid, external_flows=flows, imports=imports,
                              cluster_emissions=emissions,
                              ghg=sum(emissions.values()))


def bound_diagnostics(instance: EnergySystemInstance, assignment: ClusterAssignment,
                      bound_kind: str) -> dict:
    """Structured per-cluster summary of one aggregated bound problem.

    Lists each cluster's members, peak demands, internal and external edges
    and forced expansion floor, plus the reference operating costs and the
    nodal shortfalls of the non-transportable products.  Nothing in the
    package calls it; it is a diagnostic for inspecting a clustering by hand.
    """
    agg = aggregate_parameters(instance, assignment, bound_kind)
    merit = merit_order(instance)
    gaps = secured_gaps(instance, merit)
    carried = {b for b in range(instance.n_products)
               for comp in instance.grid_components
               if instance.grid_product(comp)[0] == b}
    doc: dict = {"bound_kind": bound_kind, "k": assignment.k,
                 "reference_op_cost": {pid: (None if math.isinf(v) else v)
                                       for pid, v in merit.reference_op_cost.items()},
                 "clusters": {}}
    for a in sorted(assignment.clusters):
        members = assignment.clusters[a]
        demand_peak = {p.id: float(agg.demand[b, a, :].max())
                       for b, p in enumerate(instance.products)}
        forced: dict[str, float] = {}
        for eid in assignment.internal_edges[a]:
            e = instance.edge_index(eid)
            for b, product in enumerate(instance.products):
                if b not in carried or not product.transportable:
                    continue
                held = sum(instance.grid_product(comp)[1]
                           * float(instance.existing_grid[g, e, :].sum())
                           for g, comp in enumerate(instance.grid_components)
                           if instance.grid_product(comp)[0] == b)
                need = max(0.0, float(agg.demand[b, a, :].max()) - held)
                if need > 0.0:
                    forced[f"{eid}/{product.id}"] = need
        doc["clusters"][str(a)] = {
            "members": list(members),
            "demand_peak": demand_peak,
            "internal_edges": list(assignment.internal_edges[a]),
            "external_edges": list(assignment.external_edges[a]),
            "forced_expansion_floor": forced,
        }
    doc["firm_shortfall"] = {
        p.id: {node.id: float(gaps.firm_shortfall[b, n])
               for n, node in enumerate(instance.nodes)}
        for b, p in enumerate(instance.products) if not p.transportable}
    doc["peak_shortfall"] = {
        p.id: {node.id: float(gaps.peak_shortfall[b, n])
               for n, node in enumerate(instance.nodes)}
        for b, p in enumerate(instance.products) if not p.transportable}
    return doc
