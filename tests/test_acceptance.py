"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Criteria that sweep many instances print a short evidence
summary; timings are measured, reported, and only asserted where a
criterion states a budget or a trend.
"""

import math
import time
from fractions import Fraction

import pytest

import _factories as factories
import _lp_oracle as oracle
import test_bounds as bounds_oracles
from sparta import simplex
from sparta.bounds import UPPER, bound_diagnostics, build_lb_lp, build_ub_lp, merit_order, secured_gaps
from sparta.clustering import KMEDOIDS, cluster_nodes, split_disconnected
from sparta.decompose import redesign_all, redesign_tac
from sparta.driver import BoundIterationRecord, SpArtaConfig, fast_forward_next_k, gap, run_iterations
from sparta.generator import GeneratorSpec, generate
from sparta.model import DC, TRANSSHIPMENT, discount_horizon, npv_factor
from sparta.pipeline import run_pipeline, solve_full

RELATIVE_SLACK = 1e-6  # solver-tolerance allowance on cost comparisons


def _bracket_spec(i: int) -> GeneratorSpec:
    """50 varied instances: 8-16 nodes, 4-12 steps, 2-3 products, both modes."""
    nodes = [8, 10, 12, 14, 16][i % 5]
    steps = [4, 6, 8, 10, 12][(i // 5) % 5]
    products = 2 if i % 2 == 0 else 3
    mode = TRANSSHIPMENT if i % 4 < 2 else DC
    return GeneratorSpec(seed=i, n_nodes=nodes, n_time_steps=steps,
                         n_products=products, n_nontransportable=1,
                         n_components=products + 2, transport_mode=mode)


GAP_RUN_SPECS = [
    GeneratorSpec(seed=100, n_nodes=8, n_time_steps=4, transport_mode=TRANSSHIPMENT),
    GeneratorSpec(seed=101, n_nodes=9, n_time_steps=6, transport_mode=DC),
    GeneratorSpec(seed=102, n_nodes=10, n_time_steps=5, n_products=3,
                  n_components=5, transport_mode=TRANSSHIPMENT),
    GeneratorSpec(seed=103, n_nodes=11, n_time_steps=4, transport_mode=DC),
    GeneratorSpec(seed=104, n_nodes=12, n_time_steps=6, transport_mode=TRANSSHIPMENT),
    GeneratorSpec(seed=105, n_nodes=8, n_time_steps=8, n_products=3,
                  n_components=5, transport_mode=DC),
    GeneratorSpec(seed=106, n_nodes=10, n_time_steps=4, transport_mode=TRANSSHIPMENT),
    GeneratorSpec(seed=107, n_nodes=12, n_time_steps=5, transport_mode=DC),
]


@pytest.fixture(scope="module")
def gap_runs():
    """Shared epsilon-0.05 pipeline runs over mixed modes and sizes."""
    runs = []
    for spec in GAP_RUN_SPECS:
        instance = generate(spec)
        result = run_pipeline(instance, SpArtaConfig(epsilon_target=0.05),
                              benchmark=False)
        runs.append((spec, result))
    return runs


@pytest.fixture(scope="module")
def triangle_run():
    """The 3-node congestion counterexample, decomposed at the coarse k=2."""
    instance = factories.triangle_dc_instance()
    return run_pipeline(instance, SpArtaConfig(
        epsilon_target=0.4, step_rule="fixed:1", max_iterations=1))


def test_criterion_1_bracketing_guarantee():
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for i in range(50):
        instance = generate(_bracket_spec(i))
        full_tac = solve_full(instance).tac
        slack = RELATIVE_SLACK * full_tac
        for k in (2, math.ceil(instance.n_nodes / 2), instance.n_nodes):
            assignment = split_disconnected(
                instance, cluster_nodes(instance, k, KMEDOIDS))
            lb = simplex.solve(build_lb_lp(instance, assignment))
            assert lb.optimal, f"seed {i} k={k}: lower bound {lb.status}"
            assert lb.objective <= full_tac + slack, \
                f"seed {i} k={k}: lb {lb.objective} above full {full_tac}"
            worst = max(worst, lb.objective - full_tac)
            ub = simplex.solve(build_ub_lp(instance, assignment))
            if ub.optimal:
                assert full_tac <= ub.objective + slack, \
                    f"seed {i} k={k}: ub {ub.objective} below full {full_tac}"
                worst = max(worst, full_tac - ub.objective)
            else:
                assert ub.status == "infeasible"  # restriction too coarse
            checked += 1
    elapsed = time.perf_counter() - started
    print(f"criterion 1: {checked} bound pairs over 50 instances, "
          f"worst overshoot {worst:.3e}, {elapsed:.1f}s")
    assert elapsed < 600.0


def test_criterion_2_identity_at_full_resolution():
    cases = [
        factories.heat_and_power_instance(),
        generate(GeneratorSpec(seed=200, n_nodes=8, n_time_steps=4)),
        generate(GeneratorSpec(seed=201, n_nodes=10, n_time_steps=5)),
    ]
    for instance in cases:
        n = instance.n_nodes
        run = run_iterations(instance, SpArtaConfig(
            epsilon_target=1e-9, initial_k=n, max_iterations=2))
        record = run.history[-1]
        assert record.k_effective == n
        assert gap(record.tac_lb, record.tac_ub) <= 1e-6
        design, redesigns = redesign_all(instance, run.assignment, run.ub_solution)
        tac = redesign_tac(instance, design, redesigns)
        full_tac = solve_full(instance).tac
        assert abs(tac - full_tac) <= 1e-6 * full_tac
    print(f"criterion 2: singleton gap and decomposed cost match on "
          f"{len(cases)} transshipment instances")


def test_criterion_3_gap_guarantee(gap_runs):
    for spec, result in gap_runs:
        r = result.report
        assert r.epsilon_final <= 0.05 + 1e-9, \
            f"seed {spec.seed}: final quality {r.epsilon_final}"
    improvements = [r.report.epsilon_bounds - r.report.epsilon_final
                    for _, r in gap_runs]
    print(f"criterion 3: {len(gap_runs)} runs ended within 0.05; redesign "
          f"improved the gap by {min(improvements):.4f}..{max(improvements):.4f}")


def test_criterion_4_improvement_chain(gap_runs, triangle_run):
    results = [result for _, result in gap_runs] + [triangle_run]
    for result in results:
        r = result.report
        slack = RELATIVE_SLACK * max(r.tac_final, 1.0)
        assert r.tac_lb <= r.tac_final + slack
        assert r.tac_final <= r.tac_redesign + slack
        assert r.tac_redesign <= r.tac_ub + slack
    print(f"criterion 4: bound-final-redesign chain held on {len(results)} runs")


def test_criterion_5_feasibility(gap_runs, triangle_run):
    repaired = 0
    for spec, result in gap_runs:
        if spec.transport_mode == TRANSSHIPMENT:
            assert result.check_status == "optimal", \
                f"seed {spec.seed}: recombined design failed its operational check"
        else:
            assert math.isfinite(result.solution.tac)
            repaired += result.report.network_opt_used
    assert triangle_run.check_status == "infeasible"
    assert triangle_run.report.network_opt_used
    assert triangle_run.report.tac_final == pytest.approx(
        triangle_run.report.tac_full, rel=1e-9)
    assert triangle_run.report.tac_full == pytest.approx(440.0 + 4000.0 / 4800.0)
    print(f"criterion 5: all transshipment designs ran as-built; "
          f"{repaired} DC runs needed the grid re-optimized; "
          f"counterexample repaired to the full optimum")


def test_criterion_6_fast_forward_worked_example():
    def record(k, lb, ub):
        return BoundIterationRecord(iteration=0, k_requested=k, k_effective=k,
                                    tac_lb=lb, tac_ub=ub, epsilon=(ub - lb) / lb,
                                    wall_lb_s=0.0, wall_ub_s=0.0)

    nxt = fast_forward_next_k(record(10, 90.0, 130.0), record(20, 96.0, 116.0),
                              epsilon_target=0.05, min_step=1, max_step=10)
    assert nxt == 26
    print("criterion 6: extrapolated next resolution is 26")


def test_criterion_7_solver_duels():
    failures = oracle.run_duels(100, seed=20260814, max_vars=12, max_rows=12,
                                rel_tol=1e-6)
    assert not failures, "\n".join(failures)
    print("criterion 7: 100/100 duels agree with the exact oracle")


def test_criterion_8_scaling_trend():
    sweep = (8, 16, 32, 48)
    instances = {steps: factories.uniform_ring_instance(16, steps) for steps in sweep}
    sparta_walls = {steps: [] for steps in sweep}
    full_walls = {steps: [] for steps in sweep}
    for _ in range(3):  # round-robin, so a slow stretch of the host hits every T alike
        for steps in sweep:
            report = run_pipeline(instances[steps], SpArtaConfig(epsilon_target=0.05)).report
            sparta_walls[steps].append(report.wall_sparta_s)
            full_walls[steps].append(report.wall_full_s)
    ratios = {steps: min(sparta_walls[steps]) / min(full_walls[steps]) for steps in sweep}
    curve = " ".join(f"T={t}:{ratios[t]:.2f}" for t in sweep)
    print(f"criterion 8: runtime ratio curve {curve}")
    assert ratios[sweep[-1]] <= ratios[sweep[0]], curve


def test_criterion_9_unit_formulas():
    assert discount_horizon(40, 10) == 10
    assert discount_horizon(8, 20) == 8
    assert discount_horizon(10, 10) == 10

    assert npv_factor(0.0, 10) == pytest.approx(10.0, abs=1e-9)
    assert npv_factor(0.05, 1) == pytest.approx(1.0 / 1.05, abs=1e-9)
    q = (1 + Fraction(1, 20)) ** 10
    assert npv_factor(0.05, 10) == pytest.approx(float((q - 1) / (q * Fraction(1, 20))),
                                                 abs=1e-9)
    assert npv_factor(0.05, 10) == pytest.approx(7.721735, abs=1e-6)

    assert gap(100.0, 104.0) == pytest.approx(0.04, abs=1e-9)
    assert gap(96.0, 116.0) == pytest.approx(5.0 / 24.0, abs=1e-9)

    short = bounds_oracles._heat_node_instance(
        floor=8.0, cheap_existing=10.0, costly_existing=0.0, capacity_factor=0.5)
    gaps = secured_gaps(short, merit_order(short))
    assert gaps.firm_shortfall[0, 0] == pytest.approx(3.0, abs=1e-9)

    surplus = bounds_oracles._heat_node_instance(
        floor=8.0, cheap_existing=9.0, costly_existing=0.0)
    gaps = secured_gaps(surplus, merit_order(surplus))
    assert gaps.firm_shortfall[0, 0] == pytest.approx(-1.0, abs=1e-9)

    peaked = bounds_oracles._heat_node_instance(
        demand=10.0, cheap_existing=6.0, costly_existing=0.0)
    gaps = secured_gaps(peaked, merit_order(peaked))
    assert gaps.peak_shortfall[0, 0] == pytest.approx(4.0, abs=1e-9)

    chain = bounds_oracles._chain_instance(demand_end=5.0, wire_existing=(3.0, 3.0))
    merged = bounds_oracles._assignment(chain, [0, 0, 0])
    doc = bound_diagnostics(chain, merged, UPPER)
    assert doc["clusters"]["0"]["forced_expansion_floor"]["e1/elec"] \
        == pytest.approx(2.0, abs=1e-9)
    high = build_ub_lp(chain, merged)
    solved = simplex.solve(high)
    assert solved.value_of(high, ("gcap", "wire", "e1")) == pytest.approx(2.0, abs=1e-6)
    print("criterion 9: all tabulated formula examples matched")
