"""Bundled solver tests: pinned examples, duels against the exact oracle."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from sparta import simplex
from sparta.full_model import build_full_lp
from sparta.generator import GeneratorSpec, generate
from sparta.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    SizeLimitError,
)
from sparta.model import DC, TRANSSHIPMENT

import _lp_oracle as oracle


def test_single_bound_minimum():
    lp = LinearProgram(name="one-var")
    lp.add_variable("x", lb=3.0, obj=1.0)
    res = simplex.solve(lp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(3.0, abs=1e-9)


def test_two_variable_polygon_vertex():
    lp = LinearProgram(name="polygon")
    x = lp.add_variable("x", obj=1.0)
    y = lp.add_variable("y", obj=1.0)
    lp.add_constraint("c1", [(x, 1.0), (y, 2.0)], ">=", 4.0)
    lp.add_constraint("c2", [(x, 3.0), (y, 1.0)], ">=", 6.0)
    res = simplex.solve(lp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(2.8, abs=1e-9)
    assert res.x[x] == pytest.approx(1.6, abs=1e-9)
    assert res.x[y] == pytest.approx(1.2, abs=1e-9)


def test_contradictory_rows_infeasible():
    lp = LinearProgram(name="contradict")
    x = lp.add_variable("x", lb=-math.inf)
    lp.add_constraint("ge", [(x, 1.0)], ">=", 1.0)
    lp.add_constraint("le", [(x, 1.0)], "<=", 0.0)
    res = simplex.solve(lp)
    assert res.status == INFEASIBLE


def test_unbounded_direction():
    lp = LinearProgram(name="unbounded")
    lp.add_variable("x", obj=-1.0)
    res = simplex.solve(lp)
    assert res.status == UNBOUNDED


def test_objective_constant_carries_through():
    lp = LinearProgram(name="const")
    lp.objective_constant = 7.5
    x = lp.add_variable("x", lb=1.0, ub=2.0, obj=2.0)
    lp.add_constraint("r", [(x, 1.0)], "<=", 5.0)
    res = simplex.solve(lp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(9.5, abs=1e-9)


def test_equality_row():
    lp = LinearProgram(name="equality")
    x = lp.add_variable("x", ub=3.0, obj=2.0)
    y = lp.add_variable("y", obj=3.0)
    lp.add_constraint("sum", [(x, 1.0), (y, 1.0)], "=", 5.0)
    res = simplex.solve(lp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(12.0, abs=1e-9)
    assert res.x[0] == pytest.approx(3.0, abs=1e-8)
    assert res.x[1] == pytest.approx(2.0, abs=1e-8)


def test_free_variable():
    lp = LinearProgram(name="free")
    x = lp.add_variable("x", lb=-math.inf, ub=math.inf, obj=1.0)
    y = lp.add_variable("y", obj=1.0)
    lp.add_constraint("r", [(x, 1.0), (y, 1.0)], ">=", 2.0)
    res = simplex.solve(lp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(2.0, abs=1e-9)


def test_upper_bound_flips():
    lp = LinearProgram(name="flips")
    x = lp.add_variable("x", ub=4.0, obj=-1.0)
    y = lp.add_variable("y", ub=8.0, obj=-1.0)
    lp.add_constraint("cap", [(x, 1.0), (y, 1.0)], "<=", 10.0)
    res = simplex.solve(lp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-10.0, abs=1e-9)


def test_negative_lower_bound():
    lp = LinearProgram(name="neg-bound")
    lp.add_variable("x", lb=-5.0, obj=1.0)
    res = simplex.solve(lp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-5.0, abs=1e-9)


def _beale_lp():
    lp = LinearProgram(name="beale")
    x1 = lp.add_variable("x1", obj=-0.75)
    x2 = lp.add_variable("x2", obj=150.0)
    x3 = lp.add_variable("x3", obj=-0.02)
    x4 = lp.add_variable("x4", obj=6.0)
    lp.add_constraint("r1", [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], "<=", 0.0)
    lp.add_constraint("r2", [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], "<=", 0.0)
    lp.add_constraint("r3", [(x3, 1.0)], "<=", 1.0)
    return lp


def test_degenerate_cycling_candidate():
    # Beale's classic cycling construction; anti-cycling must still finish.
    res = simplex.solve(_beale_lp())
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-0.05, abs=1e-9)


def test_size_limit_enforced():
    lp = LinearProgram(name="too-big")
    for j in range(5):
        lp.add_variable(("x", j), obj=1.0)
    with pytest.raises(SizeLimitError):
        simplex.solve(lp, size_limit=4)


def test_deterministic_resolve():
    rng = np.random.default_rng(7)
    lp = oracle.random_lp(rng, max_vars=8, max_rows=8)
    first = simplex.solve(lp)
    second = simplex.solve(lp)
    assert first.status == second.status
    if first.status == OPTIMAL:
        assert first.objective == pytest.approx(second.objective, abs=1e-12)


def test_oracle_agrees_with_vertex_enumeration():
    # validates the rational-simplex oracle itself on exhaustively checkable LPs
    rng = np.random.default_rng(2024)
    for _ in range(30):
        lp = oracle.random_lp(rng, max_vars=4, max_rows=5, box_only=True)
        status_s, obj_s = oracle.oracle_solve(lp)
        status_v, obj_v = oracle.box_vertex_solve(lp)
        assert status_s == status_v
        if status_s == oracle.OPTIMAL:
            assert obj_s == pytest.approx(obj_v, abs=1e-6)


def test_duels_against_exact_oracle():
    failures = oracle.run_duels(40, seed=90125, max_vars=12, max_rows=12)
    assert not failures, "\n".join(failures)


def test_duel_wide_instance():
    # wider-than-tall duel, close to the production shape
    failures = oracle.run_duels(4, seed=11, max_vars=30, max_rows=10)
    assert not failures, "\n".join(failures)


def _highs_objective(lp):
    from scipy.optimize import linprog

    a = lp.matrix()
    b = lp.rhs_vector()
    rel = np.array(lp.relations())
    le, ge, eq = rel == LE, rel == GE, rel == EQ
    lo, up = lp.bounds()
    res = linprog(lp.objective_vector(),
                  A_ub=sp.vstack([a[le], -a[ge]]).tocsr(), b_ub=np.concatenate([b[le], -b[ge]]),
                  A_eq=a[eq], b_eq=b[eq], bounds=np.column_stack([lo, up]), method="highs")
    assert res.status == 0, res.message
    return float(res.fun) + lp.objective_constant


@pytest.mark.parametrize("mode", [TRANSSHIPMENT, DC])
def test_refactorized_solves_match_highs_on_full_models(mode):
    # long enough that the basis is refactorized several times mid-solve
    for seed in range(3):
        lp = build_full_lp(generate(GeneratorSpec(
            seed=seed, n_nodes=5, n_time_steps=5, n_products=3, n_components=5,
            transport_mode=mode)))
        res = simplex.solve(lp)
        assert res.status == OPTIMAL
        assert res.iterations > 3 * simplex._REFACTOR_EVERY
        assert res.objective == pytest.approx(_highs_objective(lp), rel=1e-9)


def test_compact_eta_file_matches_dense_solves():
    # a wrong coupling row or a wrong scatter over repeated positions breaks this
    rng = np.random.default_rng(31)
    m = simplex._REFACTOR_EVERY + 20
    dense = np.diag(rng.uniform(2.0, 4.0, m)) + np.where(rng.random((m, m)) < 0.08,
                                                         rng.uniform(-1.0, 1.0, (m, m)), 0.0)
    fac = simplex._Basis(sp.csc_matrix(dense), simplex._REFACTOR_EVERY + 1)
    positions = list(rng.choice(m, simplex._REFACTOR_EVERY - 1, replace=False))
    positions += [positions[2], positions[2]]  # one position replaced twice more
    basis = dense.copy()
    for r in positions:
        while True:
            col = np.where(rng.random(m) < 0.2, rng.uniform(-1.0, 1.0, m), 0.0)
            col[r] = rng.uniform(2.0, 4.0)
            w = fac.ftran(col)
            if abs(w[r]) > 0.5:
                break
        fac.push(int(r), w)
        basis[:, r] = col
        rhs = rng.standard_normal(m)
        for got, want in ((fac.ftran(rhs), np.linalg.solve(basis, rhs)),
                          (fac.btran(rhs), np.linalg.solve(basis.T, rhs))):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert fac.age == simplex._REFACTOR_EVERY + 1


def test_bland_fallback_agrees_with_exact_oracle(monkeypatch):
    # every degenerate step switches to the least-index rule
    monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
    lp = _beale_lp()
    want_status, want_obj = oracle.oracle_solve(lp)
    res = simplex.solve(lp)
    assert res.status == want_status == OPTIMAL
    assert res.objective == pytest.approx(want_obj, abs=1e-9)
    failures = oracle.run_duels(40, seed=90125, max_vars=12, max_rows=12)
    assert not failures, "\n".join(failures)


def test_each_solve_leaves_one_debug_record(caplog):
    lp = LinearProgram(name="polygon")
    x = lp.add_variable("x", obj=1.0)
    y = lp.add_variable("y", obj=1.0)
    lp.add_constraint("c1", [(x, 1.0), (y, 2.0)], ">=", 4.0)
    lp.add_constraint("c2", [(x, 3.0), (y, 1.0)], ">=", 6.0)
    with caplog.at_level("DEBUG", logger="sparta.simplex"):
        res = simplex.solve(lp)
    records = [r for r in caplog.records if r.name == "sparta.simplex"]
    assert len(records) == 1
    rec = records[0]
    assert rec.levelname == "DEBUG"
    assert (rec.lp_name, rec.rows, rec.columns, rec.nnz) == ("polygon", 2, 2, 4)
    assert rec.status == OPTIMAL
    assert 0 < rec.phase_one_iterations <= rec.iterations == res.iterations
    assert rec.refactorizations >= 2  # the first factorization and the final check
    assert rec.wall_s == res.wall_time

