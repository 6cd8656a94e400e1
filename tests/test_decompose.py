"""Cluster redesign, recombination, and the closing network optimization."""

import dataclasses

import numpy as np
import pytest

from sparta import simplex, solution
from sparta.bounds import (
    AggregatedSolution,
    build_lb_lp,
    build_ub_lp,
    extract_aggregated_solution,
)
from sparta.clustering import cluster_nodes, split_disconnected
from sparta.decompose import (
    BOUNDARY,
    FullDesign,
    build_cluster_subproblem,
    network_optimization,
    operational_check,
    redesign_all,
    redesign_tac,
)
from sparta.driver import SpArtaConfig, run_iterations
from sparta.full_model import build_full_lp
from sparta.generator import GeneratorSpec, generate
from sparta.lp import EQ, GE, INFEASIBLE, SolutionMismatchError, SubproblemError
from sparta.model import (
    DC,
    GRID,
    PRODUCTION,
    TRANSSHIPMENT,
    Component,
    Edge,
    EnergySystemInstance,
    Node,
    Product,
    TimeStep,
)

import _factories as factories


def _solved(lp):
    result = simplex.solve(lp)
    assert result.optimal, result.status
    return result


def _terminated(instance, epsilon):
    """Run the bounding loop to its end and return the run plus the record
    holding the surviving aggregated solution."""
    config = SpArtaConfig(epsilon_target=epsilon, initial_k=2, step_rule="fixed:1")
    run = run_iterations(instance, config)
    record = next(r for r in reversed(run.history) if r.ub_solution is not None)
    return run, record


def _pair_instance(demand=(4.0, 4.0), limits=(6.0, 6.0)):
    """Two connected nodes with capped generation at each."""
    dem = np.zeros((1, 2, 1))
    dem[0, 0, 0], dem[0, 1, 0] = demand
    return EnergySystemInstance(
        products=(Product(id="elec", transportable=True),),
        components=(
            Component(id="gen", kind=PRODUCTION, ratio={"elec": 1.0},
                      invest_cost=np.array([12.0]), op_cost=0.1,
                      lifetime=1, discount_period=1,
                      nodal_capacity_limit={"m1": limits[0], "m2": limits[1]}),
            Component(id="wire", kind=GRID, ratio={"elec": 1.0},
                      invest_cost=np.array([1.0]), lifetime=1, discount_period=1,
                      transport_mode=TRANSSHIPMENT),
        ),
        nodes=(Node(id="m1"), Node(id="m2", x=1.0)),
        edges=(Edge(id="me", node_a="m1", node_b="m2"),),
        time_steps=(TimeStep(id="t0", weight=1.0),),
        years=(2030,),
        demand=dem,
        availability=np.ones((1, 2, 1)),
        existing_production=np.zeros((1, 2, 0)),
        existing_grid=np.zeros((1, 1, 0)),
    )


def _aggregated(caps, flows=None, emissions=None, imports=None, grid=None):
    emissions = dict(emissions or {})
    return AggregatedSolution(
        tac=0.0,
        capacity_expansion=dict(caps),
        grid_expansion=dict(grid or {}),
        external_flows=dict(flows or {}),
        imports=dict(imports or {}),
        cluster_emissions=emissions,
        ghg=sum(emissions.values()),
    )


def test_budget_redistribution_respects_nodal_caps():
    # total addition is pinned to 10 while no single node may host more than 6
    inst = _pair_instance()
    assignment = split_disconnected(inst, cluster_nodes(inst, 1, "kmedoids"))
    sub = build_cluster_subproblem(
        inst, assignment, _aggregated({("gen", 0): 10.0}, emissions={0: 0.0}), 0)
    row = sub.lp.row_index(("budget", "gen"))
    assert sub.lp.relations()[row] == EQ
    assert sub.lp.rhs_vector()[row] == 10.0
    result = _solved(sub.lp)
    caps = [result.value_of(sub.lp, ("cap", "gen", m)) for m in ("m1", "m2")]
    assert sum(caps) == pytest.approx(10.0, abs=1e-9)
    assert max(caps) <= 6.0 + 1e-9


def test_zero_demand_zero_budget_yields_all_zero():
    inst = _pair_instance(demand=(0.0, 0.0))
    assignment = split_disconnected(inst, cluster_nodes(inst, 1, "kmedoids"))
    sub = build_cluster_subproblem(
        inst, assignment, _aggregated({("gen", 0): 0.0}, emissions={0: 0.0}), 0)
    result = _solved(sub.lp)
    assert result.objective == 0.0
    for m in ("m1", "m2"):
        assert result.value_of(sub.lp, ("cap", "gen", m)) == 0.0
        assert result.value_of(sub.lp, ("prod", "gen", m, "t0")) == 0.0


def test_cluster_balance_relaxed_no_merit_caps_true_availability():
    inst = factories.heat_and_power_instance(TRANSSHIPMENT)
    run, _record = _terminated(inst, 0.5)
    sub = build_cluster_subproblem(inst, run.assignment, run.ub_solution, 0)
    relations = sub.lp.relations()
    for product in inst.products:
        for ts in inst.time_steps:
            assert relations[sub.lp.row_index(("sysbal", product.id, ts.id))] == GE
    assert not any(key[0] == "merit" for key in sub.lp.constraint_keys)
    # availability rows carry the node's own profile, not a cluster aggregate
    wind = inst.production_index("wind")
    node_id = sub.members[0]
    n = inst.node_index(node_id)
    for t, ts in enumerate(inst.time_steps):
        coeffs = sub.lp.row_coefficients(("avail", "wind", node_id, ts.id))
        cap_col = sub.lp.var_index(("cap", "wind", node_id))
        assert coeffs[cap_col] == pytest.approx(-float(inst.availability[wind, n, t]))


def test_boundary_flows_feed_the_receiving_cluster():
    inst = factories.line_instance(demand_split=(3.0, 5.0))
    run, record = _terminated(inst, 1e-9)
    assert record.k_effective == 2
    sub = build_cluster_subproblem(inst, run.assignment, run.ub_solution, 1)
    assert sub.members == ("n2",)
    for ts in inst.time_steps:
        assert run.ub_solution.external_flows[("wire", "e1", ts.id)] == pytest.approx(5.0)
    # the inflow of 5 cancels the 5 units demanded at n2 in the cluster's slice
    assert sub.instance.demand == pytest.approx(np.zeros((1, 1, inst.n_time_steps)), abs=1e-9)
    design, redesigns = redesign_all(inst, run.assignment, run.ub_solution)
    by_cluster = {r.cluster: r for r in redesigns}
    for ts in inst.time_steps:
        assert by_cluster[0].production[("gen", "n1", ts.id)] == pytest.approx(8.0)
        assert by_cluster[1].production[("gen", "n2", ts.id)] == pytest.approx(0.0, abs=1e-9)
    # n1 carries 8 units of capacity at 60/a plus 0.2/unit over 2x10 hours
    assert by_cluster[0].tac == pytest.approx(512.0)
    assert by_cluster[1].tac == pytest.approx(0.0, abs=1e-9)
    assert redesign_tac(inst, design, redesigns) == pytest.approx(record.tac_ub)
    assert record.tac_ub == pytest.approx(542.0)


def test_singleton_clustering_reproduces_ub_design():
    inst = factories.heat_and_power_instance(TRANSSHIPMENT)
    run, record = _terminated(inst, 1e-9)
    assert record.k_effective == inst.n_nodes
    design, redesigns = redesign_all(inst, run.assignment, run.ub_solution)
    for (comp_id, node_id), value in design.capacity_expansion.items():
        a = run.assignment.cluster_of[node_id]
        expected = run.ub_solution.capacity_expansion.get((comp_id, a), 0.0)
        assert value == pytest.approx(expected, abs=1e-9)
    for key, value in design.grid_expansion.items():
        assert design.provenance[("gcap",) + key] == BOUNDARY
        assert value == pytest.approx(run.ub_solution.grid_expansion.get(key, 0.0), abs=1e-9)
    assert redesign_tac(inst, design, redesigns) == pytest.approx(record.tac_ub)


@pytest.mark.parametrize("mode", [TRANSSHIPMENT, DC])
def test_improvement_chain_and_budget_conservation(mode):
    inst = factories.heat_and_power_instance(mode)
    run, record = _terminated(inst, 0.5)
    assert record.k_effective < inst.n_nodes  # a real aggregation, not identity
    design, redesigns = redesign_all(inst, run.assignment, run.ub_solution)
    total = redesign_tac(inst, design, redesigns)
    assert sum(r.tac for r in redesigns) <= record.tac_ub + 1e-7 * record.tac_ub
    assert total <= record.tac_ub + 1e-7 * record.tac_ub
    check, operated = operational_check(inst, design)
    assert check.optimal
    assert operated.tac <= total + 1e-7 * total
    final = network_optimization(inst, design)
    assert record.tac_lb - 1e-6 <= final.tac <= operated.tac + 1e-7 * total
    assert final.ghg <= inst.ghg_limit + 1e-9
    for redesign in redesigns:
        members = run.assignment.clusters[redesign.cluster]
        for comp in inst.production_components:
            placed = sum(redesign.capacity[(comp.id, m)] for m in members)
            budget = run.ub_solution.capacity_expansion.get((comp.id, redesign.cluster), 0.0)
            assert placed == pytest.approx(budget, abs=1e-7 * max(1.0, budget))


def test_import_shares_partition_system_imports():
    inst = factories.heat_and_power_instance(TRANSSHIPMENT)
    run, _record = _terminated(inst, 0.5)
    clusters = sorted(run.assignment.clusters)
    subs = [build_cluster_subproblem(inst, run.assignment, run.ub_solution, a)
            for a in clusters]
    for ts in inst.time_steps:
        total = sum(s.import_shares[("elec", ts.id)] for s in subs)
        assert total == pytest.approx(
            run.ub_solution.imports.get(("elec", ts.id), 0.0), abs=1e-9)
        assert not any(("heat", ts.id) in s.import_shares for s in subs)
    _design, redesigns = redesign_all(inst, run.assignment, run.ub_solution)
    for redesign, sub in zip(redesigns, subs):
        for key, value in redesign.imports.items():
            assert value <= sub.import_shares[key] + 1e-9


def test_boundary_flows_within_ub_edge_capacity():
    inst = factories.heat_and_power_instance(TRANSSHIPMENT)
    run, _record = _terminated(inst, 0.5)
    sol = run.ub_solution
    for (comp_id, edge_id, _ts_id), flow in sol.external_flows.items():
        g = inst.grid_index(comp_id)
        e = inst.edge_index(edge_id)
        held = float(inst.existing_grid[g, e, :].sum())
        cap = held + sol.grid_expansion.get((comp_id, edge_id), 0.0)
        assert abs(flow) <= cap + 1e-7


def test_underfed_boundary_is_a_hard_error():
    # the fixed inflow covers 3 of the 8 units demanded at a producer-less
    # node: that falsifies the aggregated restriction, and the redesign must
    # raise instead of handing back a design
    inst = factories.line_instance()
    assignment = split_disconnected(inst, cluster_nodes(inst, 2, "kmedoids"))
    starved = _aggregated(
        {("gen", 0): 8.0},
        flows={("wire", "e1", ts.id): 3.0 for ts in inst.time_steps},
        emissions={0: 160.0, 1: 0.0},
    )
    with pytest.raises(SubproblemError, match="cluster 1"):
        redesign_all(inst, assignment, starved)


def test_dc_counterexample_is_repaired_by_network_optimization():
    inst = factories.triangle_dc_instance()
    full = _solved(build_full_lp(inst))
    assignment = split_disconnected(inst, cluster_nodes(inst, 2, "kmedoids"))
    assert assignment.clusters == {0: ("n1", "n2"), 1: ("n3",)}
    ub_lp = build_ub_lp(inst, assignment)
    ub = _solved(ub_lp)
    sol = extract_aggregated_solution(inst, assignment, ub_lp, ub)
    # the aggregation pools the two boundary lines into one corridor, so each
    # carries half the demand although the weak line alone could not
    assert sol.external_flows[("hv", "e1", "t1")] == pytest.approx(4.0)
    assert sol.external_flows[("hv", "e2", "t1")] == pytest.approx(4.0)
    design, redesigns = redesign_all(inst, assignment, sol)
    check, operated = operational_check(inst, design)
    assert check.status == INFEASIBLE and operated is None
    final = network_optimization(inst, design)
    assert final.tac == pytest.approx(full.objective)
    assert final.tac == pytest.approx(440.0 + 4000.0 / 4800.0, rel=1e-9)
    repaired = FullDesign(
        capacity_expansion=design.capacity_expansion,
        grid_expansion=final.grid_expansion,
        provenance=design.provenance,
    )
    again, operated = operational_check(inst, repaired)
    assert again.optimal
    assert operated.tac == pytest.approx(final.tac)
    # the repair never degrades the certified quality of the aggregated run
    lb = _solved(build_lb_lp(inst, assignment))
    total = redesign_tac(inst, design, redesigns)
    assert lb.objective - 1e-9 <= final.tac <= total <= ub.objective + 1e-9


def test_zero_capacity_design_is_infeasible():
    inst = factories.line_instance()
    design = FullDesign(
        capacity_expansion={(c.id, n.id): 0.0
                            for c in inst.production_components for n in inst.nodes},
        grid_expansion={(g.id, e.id): 0.0
                        for g in inst.grid_components for e in inst.edges},
    )
    result, solution = operational_check(inst, design)
    assert result.status == INFEASIBLE
    assert solution is None


def test_cut_set_diagnosis_names_the_starved_cluster():
    inst = factories.line_instance()
    wire = next(c for c in inst.components if c.id == "wire")
    frozen = dataclasses.replace(wire, nodal_capacity_limit={"e1": 0.0})
    capped = dataclasses.replace(inst, components=(inst.components[0], frozen))
    design = FullDesign(
        capacity_expansion={("gen", "n1"): 8.0, ("gen", "n2"): 0.0},
        grid_expansion={("wire", "e1"): 0.0},
        provenance={("cap", "gen", "n1"): 0, ("cap", "gen", "n2"): 1,
                    ("gcap", "wire", "e1"): BOUNDARY},
    )
    with pytest.raises(SubproblemError, match="cluster 1 boundary cannot import enough 'elec'"):
        network_optimization(capped, design)


def test_parallel_merge_is_deterministic():
    inst = factories.heat_and_power_instance(TRANSSHIPMENT)
    run, _record = _terminated(inst, 0.5)
    design_one, redesigns_one = redesign_all(inst, run.assignment, run.ub_solution, jobs=1)
    design_four, redesigns_four = redesign_all(inst, run.assignment, run.ub_solution, jobs=4)
    assert design_one.capacity_expansion == design_four.capacity_expansion
    assert design_one.grid_expansion == design_four.grid_expansion
    assert [r.tac for r in redesigns_one] == [r.tac for r in redesigns_four]
    with pytest.raises(ValueError):
        redesign_all(inst, run.assignment, run.ub_solution, jobs=0)


def test_ghg_budget_carries_realized_cluster_emissions():
    inst = factories.line_instance(ghg_limit=100.0, clean_gen=True)
    assignment = split_disconnected(inst, cluster_nodes(inst, 1, "kmedoids"))
    ub_lp = build_ub_lp(inst, assignment)
    ub = _solved(ub_lp)
    sol = extract_aggregated_solution(inst, assignment, ub_lp, ub)
    assert sum(sol.cluster_emissions.values()) <= 100.0 + 1e-9
    sub = build_cluster_subproblem(inst, assignment, sol, 0)
    assert sub.ghg_budget == pytest.approx(sol.cluster_emissions[0])
    row = sub.lp.row_index(("ghg",))
    assert sub.lp.rhs_vector()[row] == pytest.approx(sub.ghg_budget)
    _design, redesigns = redesign_all(inst, assignment, sol)
    assert redesigns[0].ghg <= sub.ghg_budget + 1e-7


def _redesign_corpus(mode):
    generated = [generate(GeneratorSpec(seed=seed, n_nodes=n, n_time_steps=t,
                                        transport_mode=mode))
                 for n, t in ((4, 4), (6, 8)) for seed in range(4)]
    if mode == TRANSSHIPMENT:
        hand = [factories.single_node_instance(), factories.uniform_ring_instance()]
    else:
        hand = [factories.triangle_dc_instance()]
    return hand + [factories.line_instance(mode),
                   factories.heat_and_power_instance(mode)] + generated


@pytest.mark.parametrize("mode", [TRANSSHIPMENT, DC])
def test_redesign_tac_is_cluster_objectives_plus_boundary_capex(mode):
    # the recombined design, priced as a whole, must cost what the cluster
    # LPs charged plus the capital of the edges no cluster owns
    for inst in _redesign_corpus(mode):
        run = run_iterations(inst, SpArtaConfig())
        design, redesigns = redesign_all(inst, run.assignment, run.ub_solution)
        expected = sum(
            _solved(build_cluster_subproblem(inst, run.assignment, run.ub_solution, a).lp).objective
            for a in sorted(run.assignment.clusters))
        y_now = inst.n_prior_years
        for g, comp in enumerate(inst.grid_components):
            for e, edge in enumerate(inst.edges):
                if design.provenance[("gcap", comp.id, edge.id)] != BOUNDARY:
                    continue
                for y in range(y_now):
                    expected += (inst.annualized_invest(comp, y) * edge.length
                                 * float(inst.existing_grid[g, e, y]))
                expected += (inst.annualized_invest(comp, y_now) * edge.length
                             * design.grid_expansion[(comp.id, edge.id)])
        assert redesign_tac(inst, design, redesigns) == pytest.approx(
            expected, rel=1e-9, abs=1e-9)


def test_cluster_cost_mismatch_names_the_cluster(monkeypatch):
    inst = factories.heat_and_power_instance(TRANSSHIPMENT)
    run, _record = _terminated(inst, 0.5)
    original = solution.annual_cost_report

    def overpriced(*args):
        capex_prod, capex_grid, opex, ghg = original(*args)
        return capex_prod + 1.0, capex_grid, opex, ghg

    monkeypatch.setattr(solution, "annual_cost_report", overpriced)
    with pytest.raises(SolutionMismatchError) as caught:
        redesign_all(inst, run.assignment, run.ub_solution, jobs=1)
    assert str(caught.value).startswith("cluster 0: recomputed cost")


def test_inflows_that_cover_demand_leave_no_unservable_residue():
    # at one node per cluster n3 receives its whole demand over e1 and e2;
    # 8 - 16/3 - 8/3 rounds to 8.9e-16, which is not demand without a producer
    inst = factories.triangle_dc_instance()
    assignment = split_disconnected(inst, cluster_nodes(inst, 3, "kmedoids"))
    ub_lp = build_ub_lp(inst, assignment)
    sol = extract_aggregated_solution(inst, assignment, ub_lp, _solved(ub_lp))
    design, redesigns = redesign_all(inst, assignment, sol)
    assert redesign_tac(inst, design, redesigns) == pytest.approx(
        _solved(build_full_lp(inst)).objective, rel=1e-9)
