"""Sparse linear program container shared by every model builder.

Variables and constraints are registered under hashable keys (tuples by
convention) so that solutions can be read back semantically.  The container is
deliberately dumb: builders append, the solver consumes the assembled arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np
import scipy.sparse as sp

LE = "<="
EQ = "="
GE = ">="
RELATIONS = (LE, EQ, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Hard cap on variable count; exceeding it raises SizeLimitError.
DEFAULT_SIZE_LIMIT = 2_000_000


class SpartaError(Exception):
    """Base class for package errors."""


class SizeLimitError(SpartaError):
    """The LP exceeds the configured variable budget."""


class NumericBreakdownError(SpartaError):
    """The solver lost numerical control (stalled bases, bad residuals)."""


class NameCollisionError(SpartaError):
    """Two model entities mangled to the same exchange-format name."""


class StructurallyInfeasibleError(SpartaError):
    """Demand provably unservable from the instance structure alone."""


class UnboundedModelError(SpartaError):
    """A model that is expected to be bounded was not."""


class InfeasibleInstanceError(SpartaError):
    """The relaxed bound is infeasible, hence so is the instance."""


class SubproblemError(SpartaError):
    """A per-cluster redesign subproblem failed unexpectedly."""


class SolutionMismatchError(SpartaError):
    """Recomputed cost terms disagree with the solver objective."""


class DocumentFormatError(SpartaError):
    """A serialized document violates its schema."""


class GenerationError(SpartaError):
    """The synthetic-instance generator could not satisfy its guarantees."""


@dataclass
class LinearProgram:
    """``min c.x  s.t.  A x (<=,=,>=) b,  lo <= x <= up``."""

    name: str = "lp"
    objective_constant: float = 0.0

    def __post_init__(self) -> None:
        self._var_keys: list[Any] = []
        self._var_index: dict[Any, int] = {}
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._obj: list[float] = []
        self._row_keys: list[Any] = []
        self._row_index: dict[Any, int] = {}
        self._rel: list[str] = []
        self._rhs: list[float] = []
        self._entries_row: list[int] = []
        self._entries_col: list[int] = []
        self._entries_val: list[float] = []

    # -- construction ---------------------------------------------------
    def add_variable(self, key: Any, lb: float = 0.0, ub: float = math.inf, obj: float = 0.0) -> int:
        if key in self._var_index:
            raise ValueError(f"duplicate variable key {key!r}")
        if lb > ub:
            raise ValueError(f"variable {key!r}: lower bound {lb} exceeds upper bound {ub}")
        idx = len(self._var_keys)
        self._var_keys.append(key)
        self._var_index[key] = idx
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._obj.append(float(obj))
        return idx

    def add_objective(self, col: int, coefficient: float) -> None:
        self._obj[col] += float(coefficient)

    def add_constraint(self, key: Any, coeffs: Iterable[tuple[int, float]], rel: str, rhs: float) -> int:
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        if key in self._row_index:
            raise ValueError(f"duplicate constraint key {key!r}")
        if not math.isfinite(rhs):
            raise ValueError(f"constraint {key!r}: non-finite right-hand side")
        row = len(self._row_keys)
        self._row_keys.append(key)
        self._row_index[key] = row
        self._rel.append(rel)
        self._rhs.append(float(rhs))
        for col, val in coeffs:
            if val == 0.0:
                continue
            if not math.isfinite(val):
                raise ValueError(f"constraint {key!r}: non-finite coefficient on column {col}")
            self._entries_row.append(row)
            self._entries_col.append(col)
            self._entries_val.append(float(val))
        return row

    # -- modification -----------------------------------------------------
    def set_relation(self, key: Any, rel: str) -> None:
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        self._rel[self._row_index[key]] = rel

    def set_variable_bounds(self, key: Any, lb: float | None = None, ub: float | None = None) -> None:
        """Tighten or relax one variable; ``None`` keeps the current value."""
        col = self._var_index[key]
        new_lb = self._lb[col] if lb is None else float(lb)
        new_ub = self._ub[col] if ub is None else float(ub)
        if new_lb > new_ub:
            raise ValueError(f"variable {key!r}: lower bound {new_lb} exceeds upper bound {new_ub}")
        self._lb[col] = new_lb
        self._ub[col] = new_ub

    # -- inspection -------------------------------------------------------
    @property
    def n_variables(self) -> int:
        return len(self._var_keys)

    @property
    def n_constraints(self) -> int:
        return len(self._row_keys)

    @property
    def variable_keys(self) -> list[Any]:
        return list(self._var_keys)

    @property
    def constraint_keys(self) -> list[Any]:
        return list(self._row_keys)

    def var_index(self, key: Any) -> int:
        return self._var_index[key]

    def has_var(self, key: Any) -> bool:
        return key in self._var_index

    def row_index(self, key: Any) -> int:
        return self._row_index[key]

    def has_row(self, key: Any) -> bool:
        return key in self._row_index

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self._lb, dtype=float), np.array(self._ub, dtype=float)

    def objective_vector(self) -> np.ndarray:
        return np.array(self._obj, dtype=float)

    def relations(self) -> list[str]:
        return list(self._rel)

    def rhs_vector(self) -> np.ndarray:
        return np.array(self._rhs, dtype=float)

    def matrix(self) -> sp.csr_matrix:
        m, n = self.n_constraints, self.n_variables
        a = sp.coo_matrix(
            (self._entries_val, (self._entries_row, self._entries_col)), shape=(m, n)
        )
        a.sum_duplicates()
        return a.tocsr()

    def row_coefficients(self, key: Any) -> dict[int, float]:
        """Coefficient map of one row (diagnostics/tests; not on the hot path)."""
        row = self._row_index[key]
        out: dict[int, float] = {}
        for r, c, v in zip(self._entries_row, self._entries_col, self._entries_val):
            if r == row:
                out[c] = out.get(c, 0.0) + v
        return out


@dataclass
class SolveResult:
    """Outcome of one solver call; ``x`` is indexed like the LP's variables."""

    status: str
    objective: float
    x: np.ndarray
    iterations: int
    wall_time: float

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL

    def value_of(self, lp: LinearProgram, key: Any, default: float = 0.0) -> float:
        if not lp.has_var(key):
            return default
        return float(self.x[lp.var_index(key)])
