"""Aggregated bounding LP tests: parameter pooling, merit order, bracketing."""

import dataclasses
import math

import numpy as np
import pytest

from sparta import bounds, simplex
from sparta.bounds import (
    LOWER,
    UPPER,
    MeritOrderTable,
    aggregate_parameters,
    bound_diagnostics,
    build_lb_lp,
    build_ub_lp,
    merit_order,
    secured_gaps,
)
from sparta.clustering import assignment_from_labels, split_disconnected
from sparta.full_model import build_full_lp
from sparta.generator import GeneratorSpec, generate
from sparta.lp import OPTIMAL
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


def _assignment(instance, labels):
    assignment = assignment_from_labels(instance, np.asarray(labels))
    return split_disconnected(instance, assignment)


def _solve(lp):
    res = simplex.solve(lp)
    assert res.status == OPTIMAL, res.status
    return res


def _full_tac(instance):
    return _solve(build_full_lp(instance)).objective


def _heat_node_instance(demand=5.0, cheap_existing=10.0, costly_existing=10.0,
                        buildable=True, floor=None, capacity_factor=1.0):
    """One node, local heat: two legacy units at their limit, one open option."""
    components = [
        Component(id="legacy_costly", kind=PRODUCTION, ratio={"heat": 1.0},
                  invest_cost=np.array([0.0, 70.0]), op_cost=0.05,
                  lifetime=1, discount_period=1, capacity_factor=capacity_factor,
                  nodal_capacity_limit={"n1": costly_existing}),
        Component(id="legacy_cheap", kind=PRODUCTION, ratio={"heat": 1.0},
                  invest_cost=np.array([0.0, 70.0]), op_cost=0.03,
                  lifetime=1, discount_period=1, capacity_factor=capacity_factor,
                  nodal_capacity_limit={"n1": cheap_existing}),
    ]
    if buildable:
        components.append(Component(
            id="newgen", kind=PRODUCTION, ratio={"heat": 1.0},
            invest_cost=np.array([0.0, 80.0]), op_cost=0.04,
            lifetime=1, discount_period=1, capacity_factor=capacity_factor))
    existing = np.zeros((len(components), 1, 1))
    existing[0, 0, 0] = costly_existing
    existing[1, 0, 0] = cheap_existing
    return EnergySystemInstance(
        products=(Product(id="heat", transportable=False,
                          secured_capacity_nodal=(np.array([float(floor)])
                                                  if floor is not None else None)),),
        components=tuple(components),
        nodes=(Node(id="n1"),),
        edges=(),
        time_steps=(TimeStep(id="t1", duration=1.0, weight=1.0),),
        years=(2025, 2030),
        demand=np.array([[[demand]]]),
        availability=np.ones((len(components), 1, 1)),
        existing_production=existing,
        existing_grid=np.zeros((0, 0, 1)),
    )


def _chain_instance(efficiency=1.0, lengths=(1.0, 1.0), demand_end=5.0,
                    wire_existing=(3.0, 3.0), availability=None):
    """Three nodes in a row; all generation potential at n1, demand at n3."""
    avail = np.ones((1, 3, 1)) if availability is None else np.asarray(availability)
    demand = np.zeros((1, 3, 1))
    demand[0, 2, 0] = demand_end
    existing_grid = np.zeros((1, 2, 1))
    existing_grid[0, 0, 0] = wire_existing[0]
    existing_grid[0, 1, 0] = wire_existing[1]
    return EnergySystemInstance(
        products=(Product(id="elec", transportable=True),),
        components=(
            Component(id="gen", kind=PRODUCTION, ratio={"elec": 1.0},
                      invest_cost=np.array([0.0, 10.0]), op_cost=1.0,
                      lifetime=1, discount_period=1,
                      nodal_capacity_limit={"n2": 0.0, "n3": 0.0}),
            Component(id="wire", kind=GRID, ratio={"elec": 1.0},
                      invest_cost=np.array([0.0, 5.0]), lifetime=1,
                      discount_period=1, grid_efficiency=efficiency,
                      susceptance_per_line=1.0, transport_mode=TRANSSHIPMENT),
        ),
        nodes=(Node(id="n1", x=0.0, y=0.0), Node(id="n2", x=1.0, y=0.0),
               Node(id="n3", x=2.0, y=0.0)),
        edges=(Edge(id="e1", node_a="n1", node_b="n2", length=lengths[0]),
               Edge(id="e2", node_a="n2", node_b="n3", length=lengths[1])),
        time_steps=(TimeStep(id="t1", duration=1.0, weight=1.0),),
        years=(2025, 2030),
        demand=demand,
        availability=avail,
        existing_production=np.zeros((1, 3, 1)),
        existing_grid=existing_grid,
    )


# -- parameter aggregation ----------------------------------------------------


def test_cluster_sums_add_member_demands():
    instance = factories.line_instance(demand_split=(3.0, 4.0))
    agg = aggregate_parameters(instance, _assignment(instance, [0, 0]), LOWER)
    assert agg.k == 1
    np.testing.assert_allclose(agg.demand[0, 0, :], 7.0)
    assert math.isinf(agg.capacity_limits[0, 0])  # open at n1 swallows the n2 cap

    hp = factories.heat_and_power_instance()
    assign = _assignment(hp, [0, 0, 1, 1])
    agg = aggregate_parameters(hp, assign, UPPER)
    for a, pos in ((0, [0, 1]), (1, [2, 3])):
        np.testing.assert_allclose(agg.demand[:, a, :], hp.demand[:, pos, :].sum(axis=1))
        np.testing.assert_allclose(agg.existing_production[:, a, :],
                                   hp.existing_production[:, pos, :].sum(axis=1))


def test_capacity_limits_follow_cluster_membership():
    instance = factories.line_instance()
    lp = build_ub_lp(instance, _assignment(instance, [0, 1]))
    _, ub = lp.bounds()
    assert ub[lp.var_index(("cap", "gen", 1))] == 0.0  # n2 alone keeps its zero cap
    assert math.isinf(ub[lp.var_index(("cap", "gen", 0))])


def test_availability_takes_worst_or_best():
    instance = _chain_instance(availability=np.array([0.2, 0.7, 0.5]).reshape(1, 3, 1))
    assign = _assignment(instance, [0, 0, 0])
    assert aggregate_parameters(instance, assign, LOWER).availability[0, 0, 0] == 0.7
    assert aggregate_parameters(instance, assign, UPPER).availability[0, 0, 0] == 0.2

    hp = factories.heat_and_power_instance()
    assign = _assignment(hp, [0, 0, 1, 1])
    low = aggregate_parameters(hp, assign, LOWER).availability
    high = aggregate_parameters(hp, assign, UPPER).availability
    assert np.all(low >= high)


def test_singleton_aggregation_is_identity():
    hp = factories.heat_and_power_instance()
    assign = _assignment(hp, np.arange(hp.n_nodes))
    for kind in (LOWER, UPPER):
        agg = aggregate_parameters(hp, assign, kind)
        np.testing.assert_array_equal(agg.demand, hp.demand)
        np.testing.assert_array_equal(agg.availability, hp.availability)
        np.testing.assert_array_equal(agg.existing_production, hp.existing_production)


def test_merging_clusters_only_widens_availability():
    hp = factories.heat_and_power_instance()
    fine = _assignment(hp, [0, 0, 1, 1])
    coarse = _assignment(hp, [0, 0, 0, 0])
    for kind, cmp in ((LOWER, np.greater_equal), (UPPER, np.less_equal)):
        merged = aggregate_parameters(hp, coarse, kind).availability
        split = aggregate_parameters(hp, fine, kind).availability
        for a, pos in ((0, [0, 1]), (1, [2, 3])):
            assert np.all(cmp(merged[:, 0, :], split[:, a, :]))


def test_unknown_bound_kind_rejected():
    instance = factories.line_instance()
    with pytest.raises(ValueError, match="bound kind"):
        aggregate_parameters(instance, _assignment(instance, [0, 0]), "middle")


# -- merit order and secured shortfalls ---------------------------------------


def test_costlier_than_buildable_existing_is_priced_out():
    instance = _heat_node_instance()
    table = merit_order(instance)
    assert table.reference_op_cost["heat"] == pytest.approx(0.04)
    assert table.usable_share[0, 0, 0] == 0.0  # 0.05 > cheapest buildable 0.04


def test_partial_merit_share():
    instance = _heat_node_instance(demand=5.0, cheap_existing=10.0)
    table = merit_order(instance)
    assert table.usable_share[1, 0, 0] == pytest.approx(0.5)  # 5 of 10 usable
    theta = instance.ratio_matrix()
    served = sum(theta[0, c] * table.usable_share[c, 0, 0]
                 * instance.availability[c, 0, 0]
                 * instance.existing_production[c, 0, :].sum()
                 for c in range(3))
    assert served == pytest.approx(5.0)  # allocation stops at the node's demand


def test_no_existing_no_allocation():
    instance = _heat_node_instance(cheap_existing=0.0)
    table = merit_order(instance)
    assert table.usable_share[1, 0, 0] == 0.0


def test_reference_without_buildable_units_is_infinite():
    instance = _heat_node_instance(buildable=False)
    table = merit_order(instance)
    assert math.isinf(table.reference_op_cost["heat"])
    # nothing is priced out; the cheap unit fills the demand first
    assert table.usable_share[1, 0, 0] == pytest.approx(0.5)
    assert table.usable_share[0, 0, 0] == 0.0


def test_merit_allocation_never_exceeds_demand():
    hp = factories.heat_and_power_instance()
    table = merit_order(hp)
    assert np.all(table.usable_share >= 0.0) and np.all(table.usable_share <= 1.0)
    theta = hp.ratio_matrix()
    held = hp.existing_production.sum(axis=2)
    for b, product in enumerate(hp.products):
        if product.transportable:
            continue
        for n in range(hp.n_nodes):
            for t in range(hp.n_time_steps):
                served = sum(theta[b, c] * table.usable_share[c, n, t]
                             * hp.availability[c, n, t] * held[c, n]
                             for c in range(theta.shape[1]) if theta[b, c] > 0.0)
                assert served <= hp.demand[b, n, t] + 1e-9


def test_firm_shortfall_after_derating():
    instance = _heat_node_instance(floor=8.0, cheap_existing=10.0,
                                   costly_existing=0.0, capacity_factor=0.5)
    gaps = secured_gaps(instance, merit_order(instance))
    assert gaps.firm_shortfall[0, 0] == pytest.approx(3.0)  # floor 8 minus firm 5

    surplus = _heat_node_instance(floor=8.0, cheap_existing=9.0, costly_existing=0.0)
    gaps = secured_gaps(surplus, merit_order(surplus))
    assert gaps.firm_shortfall[0, 0] == pytest.approx(-1.0)  # surplus kept visible


def test_peak_shortfall_net_of_usable_existing():
    instance = _heat_node_instance(demand=10.0, cheap_existing=6.0, costly_existing=0.0)
    gaps = secured_gaps(instance, merit_order(instance))
    assert gaps.peak_shortfall[0, 0] == pytest.approx(4.0)  # peak 10, usable 6


def test_secured_rows_only_where_short():
    short = _heat_node_instance(floor=8.0, cheap_existing=10.0,
                                costly_existing=0.0, capacity_factor=0.5)
    lp = build_ub_lp(short, _assignment(short, [0]))
    assert lp.has_row(("secagg", "heat", 0))
    assert lp.rhs_vector()[lp.row_index(("secagg", "heat", 0))] == pytest.approx(3.0)

    covered = _heat_node_instance(floor=1.0, cheap_existing=10.0)
    lp = build_ub_lp(covered, _assignment(covered, [0]))
    assert not lp.has_row(("secagg", "heat", 0))


# -- aggregated LP structure ---------------------------------------------------


def test_internal_transport_vanishes_from_relaxation():
    instance = factories.line_instance()
    merged = _assignment(instance, [0, 0])
    low = build_lb_lp(instance, merged)
    assert not low.has_var(("gcap", "wire", "e1"))
    assert not low.has_var(("fp", "wire", "e1", "t0"))
    assert not low.has_row(("gflow", "wire", "e1", "t0"))
    high = build_ub_lp(instance, merged)
    assert high.has_var(("gcap", "wire", "e1"))
    assert high.has_row(("intexp", "elec", "e1"))
    # split apart the edge is external again and the relaxation keeps it
    low_split = build_lb_lp(instance, _assignment(instance, [0, 1]))
    assert low_split.has_var(("gcap", "wire", "e1"))


def test_imports_stay_out_of_cluster_balances():
    instance = factories.line_instance(import_price=30.0)
    lp = build_ub_lp(instance, _assignment(instance, [0, 0]))
    imp = lp.var_index(("imp", "elec", "t0"))
    assert lp.row_coefficients(("sysbal", "elec", "t0")).get(imp) == pytest.approx(1.0)
    assert imp not in lp.row_coefficients(("clbal", "elec", 0, "t0"))


def test_emission_cap_row():
    instance = factories.line_instance(ghg_limit=100.0)
    lp = build_ub_lp(instance, _assignment(instance, [0, 0]))
    coeffs = lp.row_coefficients(("ghg",))
    prod = lp.var_index(("prod", "gen", 0, "t0"))
    assert coeffs[prod] == pytest.approx(10.0)  # unit emission times 10 annual hours
    unlimited = build_ub_lp(factories.line_instance(), _assignment(instance, [0, 0]))
    assert not unlimited.has_row(("ghg",))


def test_multi_node_guards_skip_singletons():
    hp = factories.heat_and_power_instance()
    grouped = build_ub_lp(hp, _assignment(hp, [0, 0, 1, 1]))
    assert grouped.has_row(("merit", "heatpump", 0, "t0"))
    assert not grouped.has_row(("merit", "ccgt", 0, "t0"))  # serves no local product
    assert grouped.has_row(("newcap", "heat", 0))
    assert grouped.has_var(("need", "heat", "n1"))
    nodal = build_ub_lp(hp, _assignment(hp, np.arange(hp.n_nodes)))
    assert not any(key[0] in ("merit", "newcap", "peakneed")
                   for key in nodal.constraint_keys)
    assert not nodal.has_var(("need", "heat", "n1"))


def test_parallel_dc_corridor_shares_capacity():
    instance = factories.triangle_dc_instance()
    pair = _assignment(instance, [0, 0, 1])
    high = build_ub_lp(instance, pair)
    coeffs = high.row_coefficients(("gflow+", "hv", "e1", "t1"))
    assert coeffs[high.var_index(("gcap", "hv", "e1"))] == pytest.approx(-1.0)
    assert coeffs[high.var_index(("gcap", "hv", "e2"))] == pytest.approx(-1.0)
    assert high.rhs_vector()[high.row_index(("gflow+", "hv", "e1", "t1"))] \
        == pytest.approx(8.0)  # pooled legacy capacity 6 + 2
    assert high.has_row(("dc", "hv", "e1", "t1"))

    low = build_lb_lp(instance, pair)
    coeffs = low.row_coefficients(("gflow+", "hv", "e1", "t1"))
    assert low.var_index(("gcap", "hv", "e2")) not in coeffs
    assert low.rhs_vector()[low.row_index(("gflow+", "hv", "e1", "t1"))] \
        == pytest.approx(6.0)
    assert not low.has_row(("dc", "hv", "e1", "t1"))  # coupling dropped when relaxing
    nodal = build_lb_lp(instance, _assignment(instance, [0, 1, 2]))
    assert nodal.has_row(("dc", "hv", "e1", "t1"))


def test_assignment_must_be_connectivity_split():
    instance = factories.bare_topology(
        ["n1", "n2", "n3"], [("e1", "n1", "n2"), ("e2", "n2", "n3")])
    torn = assignment_from_labels(instance, np.array([0, 1, 0]))
    with pytest.raises(ValueError, match="connectivity-split"):
        build_lb_lp(instance, torn)


# -- worst-case internal transport ----------------------------------------------


def test_worst_case_loss_fraction_on_peak_flow():
    instance = _chain_instance(efficiency=0.98, lengths=(1.0, 2.5),
                               demand_end=100.0, wire_existing=(100.0, 100.0))
    merged = _assignment(instance, [0, 0, 0])
    high = build_ub_lp(instance, merged)
    fmax = high.var_index(("fmax", "elec", 0, "t1"))
    # each internal edge is charged the whole peak: 2% + 5% = 7% worst-case loss
    assert high.row_coefficients(("sysbal", "elec", "t1"))[fmax] \
        == pytest.approx(-0.07)
    assert high.row_coefficients(("clbal", "elec", 0, "t1"))[fmax] \
        == pytest.approx(-0.07)
    res = _solve(high)
    assert res.value_of(high, ("fmax", "elec", 0, "t1")) == pytest.approx(100.0)
    assert res.value_of(high, ("prod", "gen", 0, "t1")) == pytest.approx(107.0)
    assert res.objective == pytest.approx(11.0 * 107.0, rel=1e-9)


def test_additive_losses_cover_serial_chains():
    # demand at the chain's far end rides over both edges, losing 2% + 5%;
    # the additive charge (7%) covers that exactly
    instance = _chain_instance(efficiency=0.98, lengths=(1.0, 2.5),
                               demand_end=100.0, wire_existing=(100.0, 100.0))
    merged = _assignment(instance, [0, 0, 0])
    full = _full_tac(instance)
    assert full == pytest.approx(11.0 * 107.0, rel=1e-9)
    high = _solve(build_ub_lp(instance, merged)).objective
    low = _solve(build_lb_lp(instance, merged)).objective
    assert low == pytest.approx(11.0 * 100.0, rel=1e-9)
    assert low <= full <= high + 1e-9
    assert high == pytest.approx(full, rel=1e-9)


def test_forced_reinforcement_matches_peak_shortfall():
    instance = _chain_instance(demand_end=5.0, wire_existing=(3.0, 3.0))
    merged = _assignment(instance, [0, 0, 0])
    high = build_ub_lp(instance, merged)
    assert high.rhs_vector()[high.row_index(("intexp", "elec", "e1"))] \
        == pytest.approx(-3.0)
    res = _solve(high)
    # peak internal flow 5 against 3 in the ground forces 2 on every edge
    assert res.value_of(high, ("gcap", "wire", "e1")) == pytest.approx(2.0)
    assert res.value_of(high, ("gcap", "wire", "e2")) == pytest.approx(2.0)
    assert res.objective == pytest.approx(_full_tac(instance), rel=1e-9)
    assert _solve(build_lb_lp(instance, merged)).objective \
        == pytest.approx(11.0 * 5.0, rel=1e-9)


# -- bracketing ------------------------------------------------------------------


def _bracket(instance, labels):
    assign = _assignment(instance, labels)
    low = _solve(build_lb_lp(instance, assign)).objective
    high = _solve(build_ub_lp(instance, assign)).objective
    return low, high


def test_relaxation_and_restriction_bracket_full_scale():
    cases = [
        (factories.line_instance(), [[0, 0], [0, 1]], {(0,): (512.0, 560.0)}),
        (factories.line_instance(efficiency=0.98), [[0, 0], [0, 1]],
         {(0,): (512.0, 570.24)}),
        (factories.triangle_dc_instance(), [[0, 0, 0], [0, 0, 1], [0, 1, 2]],
         {(0,): (360.0, 757.5), (1,): (360.0, 557.5)}),
        (factories.heat_and_power_instance(), [[0, 0, 0, 0], [0, 0, 1, 1]], {}),
        (factories.heat_and_power_instance(mode="dc"), [[0] * 4, [0, 0, 1, 1]], {}),
    ]
    for instance, label_sets, pins in cases:
        full = _full_tac(instance)
        for i, labels in enumerate(label_sets):
            low, high = _bracket(instance, labels)
            assert low <= full + 1e-7 * max(1.0, abs(full))
            assert high >= full - 1e-7 * max(1.0, abs(full))
            if (i,) in pins:
                want_low, want_high = pins[(i,)]
                assert low == pytest.approx(want_low, rel=1e-9)
                assert high == pytest.approx(want_high, rel=1e-9)


def test_coarser_clustering_never_tightens_the_window():
    instance = factories.triangle_dc_instance()
    low1, high1 = _bracket(instance, [0, 0, 0])
    low2, high2 = _bracket(instance, [0, 0, 1])
    assert low1 <= low2 + 1e-9 and high1 >= high2 - 1e-9


def test_singleton_bounds_reproduce_full_scale():
    for instance in (factories.line_instance(),
                     factories.line_instance(efficiency=0.98),
                     factories.triangle_dc_instance(),
                     factories.heat_and_power_instance(),
                     factories.heat_and_power_instance(mode="dc")):
        full = _full_tac(instance)
        low, high = _bracket(instance, np.arange(instance.n_nodes))
        assert low == pytest.approx(full, rel=1e-6)
        assert high == pytest.approx(full, rel=1e-6)


def _relabelled(lp, node_of):
    """Columns in order and rows by key, with cluster ids mapped to node ids."""
    tags = {"clbal": "nodal", "secagg": "secnod"}  # the full LP's names

    def key(k):
        return (tags.get(k[0], k[0]),) + tuple(
            node_of[x] if isinstance(x, int) else x for x in k[1:])

    cols = [key(k) for k in lp.variable_keys]
    matrix, rel, rhs = lp.matrix(), lp.relations(), lp.rhs_vector()
    rows = {}
    for i, row_key in enumerate(lp.constraint_keys):
        span = slice(matrix.indptr[i], matrix.indptr[i + 1])
        coeffs = {cols[j]: v for j, v in zip(matrix.indices[span], matrix.data[span])}
        rows[key(row_key)] = (rel[i], rhs[i], coeffs)
    lb, ub = lp.bounds()
    return cols, lb.tolist(), ub.tolist(), lp.objective_vector().tolist(), \
        lp.objective_constant, rows


def _singleton_corpus(mode):
    instances = [generate(GeneratorSpec(seed=seed, n_nodes=n, n_time_steps=n, n_products=3,
                                        n_components=5, transport_mode=mode))
                 for n in (4, 8) for seed in (0, 1)]
    if mode == TRANSSHIPMENT:
        instances += [factories.single_node_instance(), factories.line_instance(),
                      factories.line_instance(efficiency=0.98, clean_gen=True, ghg_limit=80.0),
                      factories.heat_and_power_instance()]
    else:
        instances += [factories.line_instance(mode=DC), factories.triangle_dc_instance(),
                      factories.heat_and_power_instance(mode=DC)]
    return instances


def _in_order(lp):
    """Every array of the LP as built, in its own row and column order."""
    matrix = lp.matrix()
    lb, ub = lp.bounds()
    return (lp.variable_keys, lp.constraint_keys, matrix.indptr.tolist(),
            matrix.indices.tolist(), matrix.data.tolist(), lb.tolist(), ub.tolist(),
            lp.objective_vector().tolist(), lp.relations(), lp.rhs_vector().tolist(),
            lp.objective_constant)


@pytest.mark.parametrize("mode", [TRANSSHIPMENT, DC])
def test_singleton_bound_lps_are_identical_in_order(mode):
    # run_iterations solves the lower-bound LP once at k = n and reads the
    # upper bound off the same result, which is sound only while this holds
    for instance in _singleton_corpus(mode):
        assign = _assignment(instance, np.arange(instance.n_nodes))
        assert _in_order(build_ub_lp(instance, assign)) == \
            _in_order(build_lb_lp(instance, assign))


@pytest.mark.parametrize("mode", [TRANSSHIPMENT, DC])
def test_singleton_bound_lps_are_the_full_lp(mode):
    for instance in _singleton_corpus(mode):
        assign = _assignment(instance, np.arange(instance.n_nodes))
        node_of = {a: members[0] for a, members in assign.clusters.items()}
        full = _relabelled(build_full_lp(instance), node_of)
        # rows compare as a set: the ghg row may sit elsewhere in the full LP
        assert _relabelled(build_ub_lp(instance, assign), node_of) == full
        assert _relabelled(build_lb_lp(instance, assign), node_of) == full


def test_restricting_existing_use_never_helps():
    hp = factories.heat_and_power_instance()
    assign = _assignment(hp, [0, 0, 1, 1])
    strict = _solve(build_ub_lp(hp, assign)).objective
    builder = bounds._AggregatedBuilder(hp, assign, UPPER)
    table = MeritOrderTable(np.ones_like(builder.merit.usable_share),
                            builder.merit.reference_op_cost)
    builder.merit = table
    builder.usable = bounds._usable_existing_output(hp, table)
    builder.gaps = secured_gaps(hp, table)
    relaxed = _solve(builder.build()).objective
    assert relaxed <= strict + 1e-7


def test_upper_bound_design_covers_firm_gaps():
    hp = factories.heat_and_power_instance()
    assign = _assignment(hp, [0, 0, 1, 1])
    lp = build_ub_lp(hp, assign)
    res = _solve(lp)
    gaps = secured_gaps(hp, merit_order(hp))
    theta = hp.ratio_matrix()
    b = 1  # heat
    for a, members in assign.clusters.items():
        needed = sum(max(0.0, gaps.firm_shortfall[b, hp.node_index(n)])
                     for n in members)
        built = sum(comp.capacity_factor * theta[b, c]
                    * res.value_of(lp, ("cap", comp.id, a))
                    for c, comp in enumerate(hp.production_components)
                    if theta[b, c] > 0.0)
        assert built >= needed - 1e-7


# -- diagnostics -----------------------------------------------------------------


def test_bound_report_structure():
    instance = _chain_instance(demand_end=5.0, wire_existing=(3.0, 3.0))
    doc = bound_diagnostics(instance, _assignment(instance, [0, 0, 0]), UPPER)
    cluster = doc["clusters"]["0"]
    assert cluster["members"] == ["n1", "n2", "n3"]
    assert sorted(cluster["internal_edges"]) == ["e1", "e2"]
    assert cluster["external_edges"] == []
    assert cluster["demand_peak"]["elec"] == pytest.approx(5.0)
    assert cluster["forced_expansion_floor"]["e1/elec"] == pytest.approx(2.0)

    hp = factories.heat_and_power_instance()
    doc = bound_diagnostics(hp, _assignment(hp, [0, 0, 1, 1]), LOWER)
    assert doc["bound_kind"] == LOWER and doc["k"] == 2
    assert doc["reference_op_cost"]["heat"] == pytest.approx(0.05)
    assert doc["firm_shortfall"]["heat"]["n3"] == pytest.approx(2.0)
    assert set(doc["peak_shortfall"]) == {"heat"}
