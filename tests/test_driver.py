"""Resolution-loop tests: gap arithmetic, extrapolation, termination paths."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from sparta import driver, io, simplex
from sparta.bounds import LOWER, UPPER
from sparta.clustering import HIERARCHICAL, KMEANS, KMEDOIDS
from sparta.driver import (
    CAPPED_AT_N,
    CONVERGED,
    FAST_FORWARD,
    FIXED_STEP,
    MIN_STEP,
    BoundIterationRecord,
    RunResult,
    SpArtaConfig,
    fast_forward_next_k,
    gap,
    run_iterations,
)
from sparta.generator import GeneratorSpec, generate
from sparta.lp import UNBOUNDED, InfeasibleInstanceError, SolveResult, UnboundedModelError
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
from sparta.pipeline import solve_full

import _factories as factories


def _rec(k, lb, ub, iteration=0):
    return BoundIterationRecord(iteration=iteration, k_requested=k, k_effective=k,
                                tac_lb=lb, tac_ub=ub,
                                epsilon=(ub - lb) / lb if lb > 0 else math.inf,
                                wall_lb_s=0.0, wall_ub_s=0.0)


def _ring_instance():
    """Triangle where one line may not grow; coarse merges choke on it.

    All generation sits at n1 and the demand at n3.  The direct line n1-n3
    is too small for the whole demand and frozen at its current size, but
    the detour over n2 has spare room, so the full problem is feasible.
    Merging n1 with n3 forces the peak over the frozen internal line and
    the restriction turns infeasible until the merge is undone.
    """
    existing_grid = np.zeros((1, 3, 1))
    existing_grid[0, 0, 0] = 5.0  # e1: n1-n2
    existing_grid[0, 1, 0] = 5.0  # e2: n2-n3
    existing_grid[0, 2, 0] = 2.0  # e3: n1-n3
    demand = np.zeros((1, 3, 1))
    demand[0, 2, 0] = 5.0
    return EnergySystemInstance(
        products=(Product(id="elec", transportable=True),),
        components=(
            Component(id="gen", kind=PRODUCTION, ratio={"elec": 1.0},
                      invest_cost=np.array([0.0, 10.0]), op_cost=1.0,
                      lifetime=1, discount_period=1,
                      nodal_capacity_limit={"n2": 0.0, "n3": 0.0}),
            Component(id="wire", kind=GRID, ratio={"elec": 1.0},
                      invest_cost=np.array([0.0, 5.0]), lifetime=1,
                      discount_period=1, transport_mode=TRANSSHIPMENT,
                      nodal_capacity_limit={"e1": 5.0, "e2": 5.0, "e3": 2.0}),
        ),
        nodes=(Node(id="n1", x=0.0, y=0.0), Node(id="n2", x=10.0, y=0.0),
               Node(id="n3", x=1.0, y=0.0)),
        edges=(Edge(id="e1", node_a="n1", node_b="n2", length=1.0),
               Edge(id="e2", node_a="n2", node_b="n3", length=1.0),
               Edge(id="e3", node_a="n1", node_b="n3", length=1.0)),
        time_steps=(TimeStep(id="t1", duration=1.0, weight=1.0),),
        years=(2025, 2030),
        demand=demand,
        availability=np.ones((1, 3, 1)),
        existing_production=np.zeros((1, 3, 1)),
        existing_grid=existing_grid,
    )


# -- gap and extrapolation -------------------------------------------------------


def test_gap_arithmetic():
    assert gap(100.0, 104.0) == pytest.approx(0.04)
    assert gap(100.0, 100.0) == 0.0
    assert gap(96.0, 116.0) == pytest.approx(0.2083333333333333)
    with pytest.raises(ValueError, match="nonpositive"):
        gap(0.0, 5.0)
    with pytest.raises(ValueError, match="nonpositive"):
        gap(-1.0, 5.0)


def test_extrapolation_picks_nearer_intersection():
    nxt = fast_forward_next_k(_rec(10, 90.0, 130.0), _rec(20, 96.0, 116.0),
                              epsilon_target=0.05, min_step=1, max_step=10)
    assert nxt == 26  # the falling upper trend meets the band first


def test_extrapolation_uses_surviving_trend():
    # flat upper bound is discarded; the rising lower trend alone says 33
    nxt = fast_forward_next_k(_rec(10, 90.0, 116.0), _rec(20, 96.0, 116.0),
                              epsilon_target=0.05, min_step=1, max_step=20)
    assert nxt == 33


def test_flat_trends_fall_back_to_min_step():
    prev, last = _rec(10, 90.0, 130.0), _rec(20, 90.0, 130.0)
    assert fast_forward_next_k(prev, last, 0.05, 1, 10) == 21
    assert fast_forward_next_k(prev, last, 0.05, 3, 10) == 23


def test_backward_intersection_clamps_to_min_step():
    nxt = fast_forward_next_k(_rec(10, 96.0, 110.0), _rec(20, 100.0, 104.0),
                              epsilon_target=0.05, min_step=1, max_step=10)
    assert nxt == 21


def test_long_jump_clamps_to_max_step():
    nxt = fast_forward_next_k(_rec(10, 100.0, 130.0), _rec(20, 100.1, 129.9),
                              epsilon_target=0.05, min_step=1, max_step=10)
    assert nxt == 30


def test_unusable_records_fall_back_to_min_step():
    assert fast_forward_next_k(_rec(10, 90.0, math.inf), _rec(20, 96.0, 116.0),
                               0.05, 2, 10) == 22
    assert fast_forward_next_k(_rec(20, 90.0, 130.0), _rec(20, 96.0, 116.0),
                               0.05, 1, 10) == 21  # same resolution twice


def test_next_k_names_its_rule():
    config = SpArtaConfig(max_step=10)
    history = [_rec(10, 90.0, 130.0), _rec(20, 96.0, 116.0)]
    assert driver._next_k(config, history[:1], 40) == (11, MIN_STEP)  # no trend yet
    assert driver._next_k(config, history, 40) == (26, FAST_FORWARD)
    assert driver._next_k(config, history, 24) == (24, CAPPED_AT_N)
    flat = [_rec(10, 90.0, 130.0), _rec(20, 90.0, 130.0)]
    assert driver._next_k(config, flat, 40) == (21, MIN_STEP)
    fixed = SpArtaConfig(step_rule="fixed:3")
    assert driver._next_k(fixed, history, 40) == (23, FIXED_STEP)


# -- configuration ----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        SpArtaConfig(epsilon_target=0.0)
    with pytest.raises(ValueError, match="min_step"):
        SpArtaConfig(min_step=0)
    with pytest.raises(ValueError, match="min_step"):
        SpArtaConfig(min_step=5, max_step=2)
    with pytest.raises(ValueError, match="two clusters"):
        SpArtaConfig(initial_k=1)
    with pytest.raises(ValueError, match="max_iterations"):
        SpArtaConfig(max_iterations=0)
    with pytest.raises(ValueError, match="step rule"):
        SpArtaConfig(step_rule="fixed:x")
    with pytest.raises(ValueError, match="at least 1"):
        SpArtaConfig(step_rule="fixed:0")
    with pytest.raises(ValueError, match="step rule"):
        SpArtaConfig(step_rule="sometimes")
    assert SpArtaConfig(step_rule="fixed:3").fixed_step() == 3
    assert SpArtaConfig(step_rule=FAST_FORWARD).fixed_step() is None


@pytest.mark.parametrize("field, value, message", [
    ("solver_tolerance", -1.0, "solver_tolerance"),
    ("solver_tolerance", 0.0, "solver_tolerance"),
    ("solver_tolerance", math.nan, "solver_tolerance"),
    ("solver_tolerance", math.inf, "solver_tolerance"),
    ("cluster_method", "kmedians", "clustering method"),
])
def test_config_rejects_fields_that_would_fail_mid_run(field, value, message):
    with pytest.raises(ValueError, match=message):
        SpArtaConfig(**{field: value})


def test_config_accepts_every_known_method():
    for method in (KMEANS, KMEDOIDS, HIERARCHICAL):
        SpArtaConfig(cluster_method=method, solver_tolerance=1e-9)


# -- the loop ---------------------------------------------------------------------


def test_identity_resolution_converges_immediately():
    instance = factories.heat_and_power_instance()
    result = run_iterations(instance, SpArtaConfig(initial_k=4))
    assert result.reason == CONVERGED
    assert len(result.history) == 1
    rec = result.history[0]
    assert rec.k_requested == rec.k_effective == 4
    assert rec.epsilon <= 1e-6
    assert result.ub_solution is not None
    assert result.ub_solution.tac == pytest.approx(rec.tac_ub)


def test_zero_demand_converges_with_zero_gap():
    instance = factories.line_instance(demand_split=(0.0, 0.0))
    result = run_iterations(instance, SpArtaConfig())
    assert result.reason == CONVERGED
    rec = result.history[-1]
    assert rec.tac_lb == pytest.approx(0.0, abs=1e-9)
    assert rec.tac_ub == pytest.approx(0.0, abs=1e-9)
    assert rec.epsilon == 0.0


def test_loop_reaches_target_gap():
    instance = factories.heat_and_power_instance()
    result = run_iterations(instance, SpArtaConfig(epsilon_target=0.05))
    assert result.reason == CONVERGED
    assert result.history[-1].epsilon <= 0.05
    ks = [rec.k_effective for rec in result.history]
    assert ks == sorted(set(ks))  # strictly increasing resolution
    for rec in result.history:
        assert rec.k_effective >= rec.k_requested
        if math.isfinite(rec.tac_ub):
            assert rec.tac_ub >= rec.tac_lb - 1e-7
            assert rec.epsilon == pytest.approx(gap(rec.tac_lb, rec.tac_ub))


def test_fixed_step_walks_each_resolution():
    instance = factories.heat_and_power_instance()
    result = run_iterations(instance, SpArtaConfig(
        epsilon_target=1e-15, step_rule="fixed:1"))
    assert [rec.k_effective for rec in result.history] == [2, 3, 4]
    assert result.reason == CONVERGED
    assert result.history[-1].epsilon == 0.0  # identical problems at full split
    # only the terminating design is retained
    assert all(rec.ub_solution is None for rec in result.history[:-1])
    assert result.ub_solution is result.history[-1].ub_solution


def test_too_tight_restriction_recovers_at_finer_resolution():
    instance = _ring_instance()
    result = run_iterations(instance, SpArtaConfig(epsilon_target=0.01))
    assert result.reason == CONVERGED
    first, last = result.history[0], result.history[-1]
    assert first.k_effective == 2  # n1 and n3 merged over the frozen line
    assert math.isinf(first.tac_ub) and math.isinf(first.epsilon)
    assert last.k_effective == 3
    assert last.tac_ub == pytest.approx(55.0, rel=1e-9)
    assert result.assignment.k == 3
    assert result.ub_solution is not None


def test_relaxation_infeasible_means_instance_infeasible():
    instance = factories.line_instance()
    becalmed = dataclasses.replace(
        instance, availability=np.zeros_like(instance.availability))
    with pytest.raises(InfeasibleInstanceError, match="free intra-cluster"):
        run_iterations(becalmed, SpArtaConfig())


@pytest.mark.parametrize("kind", [LOWER, UPPER])
def test_unbounded_bound_lp_raises_typed_error(kind, monkeypatch):
    real_solve = simplex.solve

    def solve(lp, *args, **kwargs):
        if lp.name.startswith(f"{kind}-"):
            return SolveResult(UNBOUNDED, -math.inf, np.full(lp.n_variables, math.nan), 0, 0.0)
        return real_solve(lp, *args, **kwargs)

    monkeypatch.setattr(simplex, "solve", solve)
    with pytest.raises(UnboundedModelError, match=f"{kind} bound LP is unbounded"):
        run_iterations(factories.heat_and_power_instance(), SpArtaConfig())


def test_iteration_budget_is_respected():
    instance = factories.heat_and_power_instance()
    result = run_iterations(instance, SpArtaConfig(
        epsilon_target=1e-15, step_rule="fixed:1", max_iterations=1))
    assert result.reason == "max-iterations"
    assert len(result.history) == 1
    assert result.ub_solution is not None  # best design so far still returned


def test_history_serializes_to_convergence_log(tmp_path):
    instance = factories.heat_and_power_instance()
    result = run_iterations(instance, SpArtaConfig(
        epsilon_target=1e-15, step_rule="fixed:1"))
    path = tmp_path / "convergence.csv"
    io.write_convergence_csv(result.history, path)
    rows = io.read_convergence_csv(path)
    assert len(rows) == len(result.history)
    assert [int(r["k_effective"]) for r in rows] == [2, 3, 4]
    assert rows[-1]["epsilon"] == pytest.approx(result.history[-1].epsilon)


def test_aggregated_design_bookkeeping():
    instance = factories.heat_and_power_instance()
    result = run_iterations(instance, SpArtaConfig(epsilon_target=0.05))
    sol = result.ub_solution
    assert sol is not None
    assert sol.ghg == pytest.approx(sum(sol.cluster_emissions.values()))
    assert sol.ghg <= instance.ghg_limit + 1e-6
    clusters = set(result.assignment.clusters)
    assert {a for _, a in sol.capacity_expansion} == clusters


def test_run_iterations_rejects_an_invalid_instance():
    with pytest.raises(ValueError, match="edge loop: self-loop"):
        run_iterations(factories.looped_line_instance())


@pytest.mark.parametrize("instance", [
    factories.heat_and_power_instance(),
    factories.heat_and_power_instance(mode=DC),
    generate(GeneratorSpec(seed=3, n_nodes=6, n_time_steps=4, n_products=3, n_components=5)),
], ids=["heat-and-power", "heat-and-power-dc", "generated-6x4"])
def test_full_resolution_pass_solves_one_lp(instance, monkeypatch):
    full_tac = solve_full(instance).tac
    real_solve = simplex.solve
    solved = []

    def solve(lp, *args, **kwargs):
        solved.append(lp.name)
        return real_solve(lp, *args, **kwargs)

    monkeypatch.setattr(simplex, "solve", solve)
    result = run_iterations(instance, SpArtaConfig(initial_k=instance.n_nodes))
    assert solved == [f"{LOWER}-k{instance.n_nodes}"]
    (rec,) = result.history
    assert rec.tac_ub == rec.tac_lb and rec.epsilon == 0.0
    assert rec.wall_ub_s == 0.0 and rec.wall_lb_s > 0.0
    assert result.reason == CONVERGED
    assert result.ub_solution is rec.ub_solution
    assert result.ub_solution.tac == pytest.approx(full_tac, rel=1e-9)


def test_each_pass_leaves_one_debug_record(caplog):
    instance = factories.heat_and_power_instance()
    with caplog.at_level(logging.DEBUG, logger="sparta.driver"):
        result = run_iterations(instance, SpArtaConfig(
            epsilon_target=1e-15, step_rule="fixed:1"))
    records = [r for r in caplog.records if r.name == "sparta.driver"]
    assert len(records) == len(result.history) == 3
    for rec, hist in zip(records, result.history):
        assert rec.levelname == "DEBUG"
        assert (rec.iteration, rec.k_requested, rec.k_effective) == \
            (hist.iteration, hist.k_requested, hist.k_effective)
        assert (rec.tac_lb, rec.tac_ub, rec.epsilon) == (hist.tac_lb, hist.tac_ub, hist.epsilon)
        assert (rec.wall_lb_s, rec.wall_ub_s) == (hist.wall_lb_s, hist.wall_ub_s)
    assert [(r.next_k, r.next_k_rule) for r in records] == \
        [(3, FIXED_STEP), (4, FIXED_STEP), (None, None)]
    assert [r.shared_solve for r in records] == [False, False, True]

    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="sparta.driver"):
        run_iterations(instance, SpArtaConfig(epsilon_target=1e-15, step_rule="fixed:5"))
    first = next(r for r in caplog.records if r.name == "sparta.driver")
    assert (first.next_k, first.next_k_rule) == (4, CAPPED_AT_N)
