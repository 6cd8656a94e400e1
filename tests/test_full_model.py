"""Full-resolution model builder and solution extraction tests."""

import dataclasses
import math

import numpy as np
import pytest

from sparta import simplex
from sparta.bounds import check_reachability
from sparta.full_model import build_full_lp
from sparta.generator import GeneratorSpec, generate
from sparta.lp import OPTIMAL, SolutionMismatchError, StructurallyInfeasibleError
from sparta.pipeline import solve_full
from sparta.model import DC, TRANSSHIPMENT
from sparta.solution import extract_solution

import _factories as factories
import _lp_oracle as oracle


def _solve(instance, **kwargs):
    lp = build_full_lp(instance, **kwargs)
    res = simplex.solve(lp)
    assert res.status == OPTIMAL, res.status
    return lp, res


def test_single_node_design():
    instance = factories.single_node_instance()
    lp, res = _solve(instance)
    sol = extract_solution(instance, lp, res)
    assert sol.capacity_expansion[("gen", "n1")] == pytest.approx(10.0, abs=1e-9)
    assert sol.tac == pytest.approx(9260.0, abs=1e-9)
    assert res.objective == pytest.approx(10 * 50 + 10 * 0.1 * 8760, abs=1e-9)


def test_zero_demand_zero_cost():
    instance = factories.single_node_instance(demand=0.0)
    lp, res = _solve(instance)
    sol = extract_solution(instance, lp, res)
    assert sol.tac == pytest.approx(0.0, abs=1e-12)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in sol.production.values())


def test_line_lossless_cost():
    instance = factories.line_instance(efficiency=1.0)
    _, res = _solve(instance)
    # 8 units generated (cap 8 at 60), wire sized 8 (at 6), 0.2/unit op over 2x10h
    assert res.objective == pytest.approx(8 * 60 + 8 * 6 + 0.2 * 8 * 20, abs=1e-8)


def test_line_lossy_cost():
    instance = factories.line_instance(efficiency=0.98)
    lp, res = _solve(instance)
    gen = 8.0 / (1 - 0.02 * 0)  # production at n1 covers demand plus line loss
    gen = 8.0 + 0.02 * 8.0
    want = gen * 60 + 8 * 6 + 0.2 * gen * 20
    assert res.objective == pytest.approx(want, abs=1e-8)
    sol = extract_solution(instance, lp, res)
    assert sol.flows[("wire", "e1", "t0")] == pytest.approx(8.0, abs=1e-8)


def test_full_lp_matches_exact_oracle_on_small_instances():
    for instance in (factories.line_instance(), factories.line_instance(efficiency=0.95),
                     factories.triangle_dc_instance()):
        lp = build_full_lp(instance)
        res = simplex.solve(lp)
        status, objective = oracle.oracle_solve(lp)
        assert res.status == status == OPTIMAL
        assert res.objective == pytest.approx(objective, rel=1e-9)


def test_dc_triangle_design():
    instance = factories.triangle_dc_instance()
    lp, res = _solve(instance)
    sol = extract_solution(instance, lp, res)
    # injections pin the loop flows at (16/3, 8/3, 8/3); two lines must grow
    assert sol.flows[("hv", "e1", "t1")] == pytest.approx(16 / 3, abs=1e-7)
    assert sol.flows[("hv", "e2", "t1")] == pytest.approx(8 / 3, abs=1e-7)
    assert sol.flows[("hv", "e3", "t1")] == pytest.approx(8 / 3, abs=1e-7)
    assert sol.grid_expansion[("hv", "e2")] == pytest.approx(8 / 3 - 2.0, abs=1e-7)
    assert sol.grid_expansion[("hv", "e3")] == pytest.approx(8 / 3 - 0.1, abs=1e-7)
    want = 8 * 40 + 25 * (8 / 3 - 2.0 + 8 / 3 - 0.1) + 0.05 * 8 * 100
    assert res.objective == pytest.approx(want, rel=1e-9)


def test_dc_consistency_invariant():
    instance = factories.triangle_dc_instance()
    lp, res = _solve(instance)
    sol = extract_solution(instance, lp, res)
    comp = instance.grid_components[0]
    for e, edge in enumerate(instance.edges):
        u, v = instance.edge_endpoints(e)
        for ts in instance.time_steps:
            flow = sol.flows[(comp.id, edge.id, ts.id)]
            spread = (sol.angles[(comp.id, instance.nodes[u].id, ts.id)]
                      - sol.angles[(comp.id, instance.nodes[v].id, ts.id)])
            assert flow == pytest.approx(comp.susceptance_per_line * spread, abs=1e-7)


def test_conservation_invariant():
    for mode in (TRANSSHIPMENT, DC):
        instance = factories.heat_and_power_instance(mode=mode)
        lp, res = _solve(instance)
        sol = extract_solution(instance, lp, res)
        theta = instance.ratio_matrix()
        for b, product in enumerate(instance.products):
            for t, ts in enumerate(instance.time_steps):
                total = sum(theta[b, c] * sol.production[(comp.id, node.id, ts.id)]
                            for c, comp in enumerate(instance.production_components)
                            for node in instance.nodes)
                total += sol.imports.get((product.id, ts.id), 0.0)
                for comp in instance.grid_components:
                    pb, ratio = instance.grid_product(comp)
                    if pb != b or comp.transport_mode != TRANSSHIPMENT:
                        continue
                    for edge in instance.edges:
                        # magnitude-based loss needs the directed pair, not the net
                        fp = res.value_of(lp, ("fp", comp.id, edge.id, ts.id))
                        fm = res.value_of(lp, ("fm", comp.id, edge.id, ts.id))
                        total -= ratio * (1 - comp.grid_efficiency) * edge.length * (fp + fm)
                assert total == pytest.approx(float(instance.demand[b, :, t].sum()), abs=1e-6)


def test_export_booking_sums_to_zero():
    instance = factories.heat_and_power_instance()
    lp, res = _solve(instance)
    sol = extract_solution(instance, lp, res)
    for product in instance.products:
        for ts in instance.time_steps:
            net = sum(sol.exports.get((product.id, node.id, ts.id), 0.0)
                      for node in instance.nodes)
            assert net == pytest.approx(0.0, abs=1e-7)


def _exports_by_scan(instance, sol):
    """Reference booking: every edge scanned for each (product, node, step)."""
    exports = {}
    for b, product in enumerate(instance.products):
        if not product.transportable:
            continue
        for n, node in enumerate(instance.nodes):
            for ts in instance.time_steps:
                total = 0.0
                for comp in instance.grid_components:
                    pb, ratio = instance.grid_product(comp)
                    if pb != b:
                        continue
                    for e, edge in enumerate(instance.edges):
                        u, v = instance.edge_endpoints(e)
                        if u == n:
                            total += ratio * sol.flows[(comp.id, edge.id, ts.id)]
                        elif v == n:
                            total -= ratio * sol.flows[(comp.id, edge.id, ts.id)]
                if total != 0.0:
                    exports[(product.id, node.id, ts.id)] = total
    return exports


@pytest.mark.parametrize("mode", [TRANSSHIPMENT, DC])
def test_export_booking_matches_the_per_node_scan(mode):
    instances = [generate(GeneratorSpec(seed=seed, n_nodes=6, n_time_steps=4, n_products=3,
                                        n_components=5, transport_mode=mode))
                 for seed in (0, 1)]
    instances += [factories.heat_and_power_instance(mode=mode),
                  factories.line_instance(efficiency=0.97, mode=mode)]
    for instance in instances:
        lp, res = _solve(instance)
        sol = extract_solution(instance, lp, res)
        assert sol.exports  # something crosses an edge
        assert list(sol.exports.items()) == list(_exports_by_scan(instance, sol).items())


def test_two_node_export_antisymmetry():
    instance = factories.line_instance(efficiency=0.97)
    lp, res = _solve(instance)
    sol = extract_solution(instance, lp, res)
    for ts in instance.time_steps:
        at_source = sol.exports.get(("elec", "n1", ts.id), 0.0)
        at_sink = sol.exports.get(("elec", "n2", ts.id), 0.0)
        assert at_source == pytest.approx(-at_sink, abs=1e-8)
        assert at_source > 0.0  # n1 feeds the line


def test_secured_capacity_forces_firm_builds():
    instance = factories.heat_and_power_instance()
    lp, res = _solve(instance)
    sol = extract_solution(instance, lp, res)
    heat = instance.products[1]
    pump = instance.production_components[2]
    firm_ratio = pump.capacity_factor * pump.ratio["heat"]
    for n, node in enumerate(instance.nodes):
        firm = firm_ratio * sol.capacity_expansion[(pump.id, node.id)]
        assert firm + 1e-7 >= float(heat.secured_capacity_nodal[n])


def test_ghg_cap_binds():
    base = factories.line_instance(clean_gen=True)
    lp, res = _solve(base)
    sol = extract_solution(base, lp, res)
    assert sol.ghg == pytest.approx(160.0, abs=1e-6)  # dirty unit is cheaper, runs alone
    capped = factories.line_instance(clean_gen=True, ghg_limit=80.0)
    lp2, res2 = _solve(capped)
    sol2 = extract_solution(capped, lp2, res2)
    assert sol2.ghg <= 80.0 + 1e-6
    assert res2.objective > res.objective  # abatement costs money


def test_reachability_rejects_isolated_demand():
    instance = factories.line_instance()
    edges = ()
    broken = dataclasses.replace(instance, edges=edges,
                                 existing_grid=np.zeros((1, 0, 0)))
    with pytest.raises(StructurallyInfeasibleError):
        check_reachability(broken)


def test_existing_above_limit_rejected():
    instance = factories.line_instance()
    comps = list(instance.components)
    comps[0] = dataclasses.replace(comps[0], nodal_capacity_limit={"n1": 0.5, "n2": 0.0})
    seeded = dataclasses.replace(
        instance, components=tuple(comps), years=(2025, 2030),
        existing_production=np.full((1, 2, 1), 1.0),
        existing_grid=np.zeros((1, 1, 1)),
    )
    comps2 = list(seeded.components)
    comps2[0] = dataclasses.replace(comps2[0], invest_cost=np.array([60.0, 60.0]))
    comps2[1] = dataclasses.replace(comps2[1], invest_cost=np.array([6.0, 6.0]))
    seeded = dataclasses.replace(seeded, components=tuple(comps2))
    with pytest.raises(StructurallyInfeasibleError):
        solve_full(seeded)


def test_fixing_design_reproduces_operation():
    instance = factories.heat_and_power_instance()
    lp, res = _solve(instance)
    sol = extract_solution(instance, lp, res)
    lp2, res2 = _solve(instance, fix_production=sol.capacity_expansion,
                       fix_grid=sol.grid_expansion)
    assert res2.objective == pytest.approx(res.objective, rel=1e-7)


@pytest.mark.parametrize("fixing", [
    {"fix_production": {("gen", "n9"): 1.0}},   # misspelled node
    {"fix_production": {("gne", "n1"): 1.0}},   # misspelled component
    {"fix_production": {("wire", "n1"): 1.0}},  # a grid component
    {"fix_grid": {("wire", "e9"): 1.0}},        # misspelled edge
    {"fix_grid": {("wrie", "e1"): 1.0}},        # misspelled component
    {"fix_grid": {("gen", "e1"): 1.0}},         # a production component
], ids=["prod-node", "prod-component", "prod-grid-component", "grid-edge",
        "grid-component", "grid-production-component"])
def test_unknown_fixing_keys_are_rejected(fixing):
    instance = factories.line_instance()
    build_full_lp(instance, fix_production={("gen", "n1"): 1.0},
                  fix_grid={("wire", "e1"): 1.0})  # the spelled-right keys pass
    with pytest.raises(KeyError):
        build_full_lp(instance, **fixing)


def test_extraction_detects_objective_mismatch():
    instance = factories.single_node_instance()
    lp = build_full_lp(instance)
    res = simplex.solve(lp)
    tampered = dataclasses.replace(res, objective=res.objective + 1.0)
    with pytest.raises(SolutionMismatchError):
        extract_solution(instance, lp, tampered)
