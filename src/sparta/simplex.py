"""Bundled LP solver: bounded-variable two-phase revised simplex.

The basis inverse is a sparse LU factorization of the last refactorized basis
plus a compact product-form eta file (see :class:`_Basis`), so ``ftran`` and
``btran`` cost a fixed number of array calls however many updates the file
holds; the basis is refactorized every ``_REFACTOR_EVERY`` updates.  Pricing
is Dantzig (most-negative reduced cost, read off a per-column sign kept in
step with every pivot and bound flip) with an automatic switch to Bland's
least-index rule while the objective stalls, which breaks cycling on
degenerate bases.  Infeasible starting rows get one artificial column each;
phase one drives their sum to zero, phase two optimizes the real objective
with the artificial columns pinned.  Every solve that returns a result emits
one DEBUG record on the ``sparta.simplex`` logger.
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lp import (
    DEFAULT_SIZE_LIMIT,
    INFEASIBLE,
    LE,
    GE,
    EQ,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    NumericBreakdownError,
    SizeLimitError,
    SolveResult,
)

AT_LOWER = np.int8(0)
AT_UPPER = np.int8(1)
FREE_ZERO = np.int8(2)
IN_BASIS = np.int8(3)

_REFACTOR_EVERY = 60
_STALL_LIMIT = 500

_log = logging.getLogger(__name__)


class _Basis:
    """LU factorization of a basis ``B0`` plus the eta file of the updates since.

    Update ``i`` put a column whose ftran was ``w`` at basis position
    ``R[i]``.  It is stored scaled, ``v_i = w / w[R[i]]`` with
    ``v_i[R[i]] = 1 - 1 / w[R[i]]``, so that its inverse eta maps
    ``z -> z - v_i * z[R[i]]``.  Applied in order, the etas couple through the
    unit lower-triangular ``L[i, j] = v_j[R[i]]`` (``j < i``), whose inverse is
    kept and grows by one row per :meth:`push`.  With ``V`` the block of the
    ``v_i`` as rows, ``ftran`` is ``z - V.T @ (inv(L) @ z[R])`` after the LU
    solve and ``btran`` is ``c - scatter(R, inv(L).T @ (V @ c))`` before the
    transposed one.  ``capacity`` bounds the number of updates.
    """

    def __init__(self, cols: sp.csc_matrix, capacity: int):
        self.lu = spla.splu(cols.tocsc(), permc_spec="COLAMD")
        self.v = np.empty((capacity, cols.shape[0]))
        self.rows = np.empty(capacity, dtype=np.intp)
        self.linv = np.eye(capacity)
        self.age = 0

    def ftran(self, a: np.ndarray) -> np.ndarray:
        z = self.lu.solve(a)
        k = self.age
        if k:
            z -= (self.linv[:k, :k] @ z[self.rows[:k]]) @ self.v[:k]
        return z

    def btran(self, c: np.ndarray) -> np.ndarray:
        k = self.age
        if k:
            coupled = (self.v[:k] @ c) @ self.linv[:k, :k]
            c = c - np.bincount(self.rows[:k], weights=coupled, minlength=c.size)
        return self.lu.solve(c, trans="T")

    def push(self, r: int, w: np.ndarray) -> None:
        k = self.age
        v = self.v[k]
        np.divide(w, w[r], out=v)
        v[r] = 1.0 - 1.0 / w[r]
        if k:
            self.linv[k, :k] = -(self.v[:k, r] @ self.linv[:k, :k])
        self.rows[k] = r
        self.age = k + 1


def _record(lp: LinearProgram, result: SolveResult, nnz: int, phase_one_iterations: int,
            refactorizations: int) -> SolveResult:
    """Emit the solve's DEBUG record and hand ``result`` back."""
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "%s: %s after %d iterations in %.4f s", lp.name, result.status, result.iterations,
            result.wall_time,
            extra={
                "lp_name": lp.name,
                "rows": lp.n_constraints,
                "columns": lp.n_variables,
                "nnz": nnz,
                "status": result.status,
                "phase_one_iterations": phase_one_iterations,
                "iterations": result.iterations,
                "refactorizations": refactorizations,
                "wall_s": result.wall_time,
            },
        )
    return result


def solve(lp: LinearProgram, tol: float = 1e-7,
          size_limit: int = DEFAULT_SIZE_LIMIT) -> SolveResult:
    """Solve ``lp`` to optimality, or detect infeasibility/unboundedness.

    Raises :class:`SizeLimitError` above ``size_limit`` variables and
    :class:`NumericBreakdownError` when residual checks fail after convergence
    or the iteration budget is exhausted.  A returned result is also logged at
    DEBUG level on ``sparta.simplex``, with the LP's name and size, status,
    phase-one and total iterations, refactorizations and wall time as record
    attributes.
    """
    start = time.perf_counter()
    n = lp.n_variables
    m = lp.n_constraints
    if n > size_limit:
        raise SizeLimitError(f"{lp.name}: {n} variables exceed the limit of {size_limit}")

    lb_s, ub_s = lp.bounds()
    c_real = lp.objective_vector()
    if m == 0:
        return _record(lp, _solve_unconstrained(lp, c_real, lb_s, ub_s, start), 0, 0, 0)

    a_struct = lp.matrix()  # csr, shape (m, n)
    b = lp.rhs_vector()
    rels = lp.relations()

    # column space: structural | slack | artificial
    lb = np.concatenate([lb_s, np.zeros(m)])
    ub = np.concatenate([ub_s, np.zeros(m)])
    for i, rel in enumerate(rels):
        if rel == LE:
            lb[n + i], ub[n + i] = 0.0, math.inf
        elif rel == GE:
            lb[n + i], ub[n + i] = -math.inf, 0.0
        else:
            lb[n + i], ub[n + i] = 0.0, 0.0

    status = np.empty(n + m, dtype=np.int8)
    finite_lb = np.isfinite(lb)
    finite_ub = np.isfinite(ub)
    status[:] = FREE_ZERO
    status[finite_ub] = AT_UPPER
    status[finite_lb] = AT_LOWER  # prefer the lower bound when both are finite
    xval = np.where(status == AT_LOWER, lb, np.where(status == AT_UPPER, ub, 0.0))
    xval[~np.isfinite(xval)] = 0.0

    # initial basis: slack where the residual fits its bounds, artificial else
    resid = b - a_struct.dot(xval[:n])
    basis = np.arange(n, n + m)
    art_rows: list[int] = []
    art_signs: list[float] = []
    art_index: dict[int, int] = {}
    x_b = np.empty(m)
    for i in range(m):
        r = resid[i]
        if lb[n + i] - 1e-12 <= r <= ub[n + i] + 1e-12:
            x_b[i] = r
        else:
            # park the slack at its nearest bound, absorb the rest in an artificial
            if r > ub[n + i]:
                parked = ub[n + i]
            else:
                parked = lb[n + i]
            status[n + i] = AT_UPPER if parked == ub[n + i] else AT_LOWER
            xval[n + i] = parked
            value = r - parked
            sign = 1.0 if value > 0 else -1.0
            art_index[i] = len(art_rows)
            art_rows.append(i)
            art_signs.append(sign)
            basis[i] = n + m + art_index[i]
            x_b[i] = abs(value)
    status[basis[basis < n + m]] = IN_BASIS
    n_art = len(art_rows)
    art_signs_arr = np.array(art_signs)

    lb_all = np.concatenate([lb, np.zeros(n_art)])
    ub_all = np.concatenate([ub, np.full(n_art, math.inf)])

    # every column the solve can touch, so basis and entering columns are slices
    art = sp.csc_matrix((art_signs_arr, (art_rows, np.arange(n_art))), shape=(m, n_art))
    cols = sp.hstack([a_struct.tocsc(), sp.identity(m, format="csc"), art], format="csc")
    at = cols[:, : n + m].T  # csr; at.dot(y) gives [A | I]^T y

    def column(j: int) -> np.ndarray:
        col = np.zeros(m)
        sl = slice(cols.indptr[j], cols.indptr[j + 1])
        col[cols.indices[sl]] = cols.data[sl]
        return col

    def basis_matrix() -> sp.csc_matrix:
        return cols[:, basis]

    refactors = 0

    def refactor() -> _Basis:
        nonlocal refactors
        refactors += 1
        try:
            fac = _Basis(basis_matrix(), _REFACTOR_EVERY + 1)
        except RuntimeError as exc:  # singular basis
            raise NumericBreakdownError(f"{lp.name}: singular basis during refactorization") from exc
        return fac

    def recompute_xb(fac: _Basis) -> np.ndarray:
        xn = np.where(status == IN_BASIS, 0.0, xval)  # only nonbasic columns contribute
        rhs = b - a_struct.dot(xn[:n])
        rhs -= xn[n:]  # slack contribution (identity columns)
        # nonbasic artificials are pinned at zero, no contribution
        return fac.ftran(rhs)

    fac = refactor()

    feastol = tol * (1.0 + float(np.max(np.abs(b))))
    iter_cap = max(20_000, 60 * (m + n))
    total_iters = phase_one_iters = 0

    def finish(result_status: str, objective: float, x: np.ndarray) -> SolveResult:
        result = SolveResult(result_status, objective, x, total_iters, time.perf_counter() - start)
        return _record(lp, result, a_struct.nnz, phase_one_iters, refactors)

    def run_phase(cost: np.ndarray, phase_one: bool) -> str:
        nonlocal fac, total_iters, x_b
        dtol = 1e-9 * max(1.0, float(np.max(np.abs(cost))) if cost.size else 1.0)
        bland = False
        stall = 0
        fixed = lb[: n + m] == ub[: n + m]
        cost_all = np.concatenate([cost, np.full(n_art, 1.0 if phase_one else 0.0)])
        # pricing sign: +1 at lower, -1 at upper, 0 basic or fixed; column j can
        # improve the objective when sign[j] * rc[j] < -dtol (free: |rc[j]| > dtol)
        sign = np.where(status == AT_LOWER, 1.0, np.where(status == AT_UPPER, -1.0, 0.0))
        sign[fixed] = 0.0
        free = np.flatnonzero(status == FREE_ZERO)
        ptol = 1e-9
        while True:
            if total_iters > iter_cap:
                raise NumericBreakdownError(
                    f"{lp.name}: iteration budget {iter_cap} exhausted (phase {1 if phase_one else 2})"
                )
            total_iters += 1
            if fac.age > _REFACTOR_EVERY:
                fac = refactor()
                x_b = recompute_xb(fac)

            cb = cost_all[basis]
            y = fac.btran(cb)
            rc = cost - at.dot(y)

            score = sign * rc
            if free.size:
                score[free] = -np.abs(rc[free])
            if bland:
                q = int(np.argmax(score < -dtol))
            else:
                q = int(np.argmin(score))
            if not score[q] < -dtol:
                return "optimal"
            dirn = float(sign[q]) or -math.copysign(1.0, rc[q])

            w = fac.ftran(column(q))
            denom = dirn * w
            bound = np.where(denom > 0.0, lb_all[basis], ub_all[basis])
            t_hit = np.divide(x_b - bound, denom, out=np.full(m, math.inf),
                              where=np.abs(denom) > ptol)
            np.maximum(t_hit, 0.0, out=t_hit)
            t_basic = float(t_hit.min())
            flip_range = ub[q] - lb[q]

            if not math.isfinite(t_basic) and not math.isfinite(flip_range):
                if phase_one:
                    raise NumericBreakdownError(f"{lp.name}: unbounded phase-one direction")
                return "unbounded"

            if flip_range <= t_basic:
                step = flip_range
                x_b -= step * denom
                status[q] = AT_UPPER if status[q] == AT_LOWER else AT_LOWER
                xval[q] = ub[q] if status[q] == AT_UPPER else lb[q]
                sign[q] = -sign[q]
            else:
                step = t_basic
                ties = np.flatnonzero(t_hit <= step + 1e-12)
                if bland:
                    leave_pos = int(ties[np.argmin(basis[ties])])
                else:
                    leave_pos = int(ties[np.argmax(np.abs(denom[ties]))])
                if abs(w[leave_pos]) < 1e-8 and fac.age:
                    # stale factorization may be to blame; rebuild and re-price
                    fac = refactor()
                    x_b = recompute_xb(fac)
                    continue
                if abs(w[leave_pos]) < 1e-10:
                    raise NumericBreakdownError(f"{lp.name}: pivot element vanished")
                x_b -= step * denom
                leaving = int(basis[leave_pos])
                hit_lower = denom[leave_pos] > 0
                if leaving < n + m:
                    status[leaving] = AT_LOWER if hit_lower else AT_UPPER
                    xval[leaving] = lb_all[leaving] if hit_lower else ub_all[leaving]
                    if not fixed[leaving]:
                        sign[leaving] = 1.0 if hit_lower else -1.0
                else:  # artificial leaves for good
                    ub_all[leaving] = 0.0
                if not sign[q]:  # a free column enters and never leaves again
                    free = free[free != q]
                sign[q] = 0.0
                x_b[leave_pos] = xval[q] + dirn * step
                basis[leave_pos] = q
                status[q] = IN_BASIS
                fac.push(leave_pos, w)

            if step * abs(rc[q]) <= 1e-12 * (1.0 + abs(float(cb @ x_b))):
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False

    # phase one
    if n_art:
        run_phase(np.zeros(n + m), phase_one=True)
        phase_one_iters = total_iters
        art_mask = basis >= n + m
        art_total = float(np.abs(x_b[art_mask]).sum()) if art_mask.any() else 0.0
        if art_total > feastol:
            return finish(INFEASIBLE, math.nan, np.full(n, math.nan))
        x_b[art_mask] = 0.0
        ub_all[n + m:] = 0.0  # pin every artificial for phase two

    # phase two
    cost2 = np.concatenate([c_real, np.zeros(m)])
    outcome = run_phase(cost2, phase_one=False)
    if outcome == "unbounded":
        return finish(UNBOUNDED, -math.inf, np.full(n, math.nan))

    # assemble, verify, and clean the primal point
    fac = refactor()
    x_b = recompute_xb(fac)
    x_all = np.concatenate([xval, np.zeros(n_art)])
    x_all[basis] = x_b
    x_struct = x_all[:n]

    bound_drift = float(np.max(np.maximum(lb_s - x_struct, x_struct - ub_s), initial=0.0))
    residual = a_struct.dot(x_struct) + x_all[n:n + m] - b
    for k in range(n_art):
        residual[art_rows[k]] += art_signs_arr[k] * x_all[n + m + k]
    res_norm = float(np.max(np.abs(residual), initial=0.0))
    if res_norm > 50 * feastol or bound_drift > 50 * feastol:
        raise NumericBreakdownError(
            f"{lp.name}: converged point violates constraints "
            f"(residual {res_norm:.3e}, bound drift {bound_drift:.3e})"
        )
    x_struct = np.clip(x_struct, lb_s, ub_s)
    objective = float(c_real @ x_struct) + lp.objective_constant
    return finish(OPTIMAL, objective, x_struct)


def _solve_unconstrained(lp: LinearProgram, c: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                         start: float) -> SolveResult:
    """No rows: every variable independently sits at its cheaper bound."""
    x = np.zeros(lp.n_variables)
    for j in range(lp.n_variables):
        if c[j] > 0:
            if not math.isfinite(lb[j]):
                return SolveResult(UNBOUNDED, -math.inf, np.full(lp.n_variables, math.nan), 0,
                                   time.perf_counter() - start)
            x[j] = lb[j]
        elif c[j] < 0:
            if not math.isfinite(ub[j]):
                return SolveResult(UNBOUNDED, -math.inf, np.full(lp.n_variables, math.nan), 0,
                                   time.perf_counter() - start)
            x[j] = ub[j]
        else:
            if math.isfinite(lb[j]):
                x[j] = lb[j]
            elif math.isfinite(ub[j]):
                x[j] = ub[j]
    objective = float(c @ x) + lp.objective_constant
    return SolveResult(OPTIMAL, objective, x, 0, time.perf_counter() - start)
