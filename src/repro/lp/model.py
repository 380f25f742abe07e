"""A small LP modeling layer over the direct-HiGHS engine.

Design goals, in order:

1. *Readable problem builders.* The flow formulations in this library are
   easier to audit when written as ``model.add_eq(outflow - inflow, demand)``
   than as raw matrix stuffing.
2. *Cheap re-solves.* The adversarial evaluation of Section VI solves one
   LP per network edge where only the objective changes; :meth:`Model.compile`
   freezes the constraint matrices once, :meth:`CompiledLP.solve` accepts a
   fresh objective per call, and :meth:`CompiledLP.reusable` returns a
   persistent solver instance that keeps the assembled engine model
   across objective/RHS swaps (each solve is still an isolated cold
   solve).
3. *Duals.* Solutions carry constraint marginals in scipy's sign convention
   (marginals of the minimized problem).  Only tests read them: Theorem 5's
   certificate is an LP of its own (:mod:`repro.lp.theorem5`).

Constraints accumulate directly into flat CSR buffers (one ``float`` and
one ``int32`` append per nonzero): no dense ``(num_vars,)`` row is ever
materialized, and :meth:`Model.compile` is O(nnz).  The ``*_terms``
methods accept iterables of ``(variable, coefficient)`` pairs for hot
builders that don't need :class:`LinExpr` arithmetic.

Numerical behavior: every solve runs on
:class:`~repro.lp.backend.highs_backend.HighsInstance` at HiGHS's
defaults (1e-7 primal/dual feasibility — see :mod:`repro.lp.backend`);
no tolerance options are forwarded, and every solve is an isolated cold
solve, so two solves of one model are deterministic and independent of
solve order.  Engine statuses map onto the library's exceptions as
``infeasible`` → :class:`~repro.exceptions.InfeasibleError`,
``unbounded`` → :class:`~repro.exceptions.UnboundedError`, ``error`` →
:class:`~repro.exceptions.SolverError`.

Only what the library needs is implemented: continuous variables, linear
constraints, minimize/maximize.  No integer variables (the apportionment
code uses combinatorial rounding instead, as the paper does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np
from scipy import sparse

from repro.exceptions import InfeasibleError, SolverError, UnboundedError
from repro.lp.backend.base import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    BackendSolution,
    LinearProgram,
    dense_objective,
)
from repro.lp.backend.highs_backend import HighsInstance


class Variable:
    """A continuous decision variable (a handle into its model)."""

    __slots__ = ("index", "name", "lower", "upper")

    def __init__(self, index: int, name: str, lower: float, upper: float):
        self.index = index
        self.name = name
        self.lower = lower
        self.upper = upper

    # Arithmetic produces LinExpr so builders can write natural formulas.
    def __add__(self, other):
        return LinExpr.of(self) + other

    def __radd__(self, other):
        return LinExpr.of(self) + other

    def __sub__(self, other):
        return LinExpr.of(self) - other

    def __rsub__(self, other):
        return (-1.0) * LinExpr.of(self) + other

    def __mul__(self, coefficient: float):
        return LinExpr.of(self) * coefficient

    def __rmul__(self, coefficient: float):
        return LinExpr.of(self) * coefficient

    def __neg__(self):
        return LinExpr.of(self) * -1.0

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


class LinExpr:
    """A linear expression: ``sum(coef_i * var_i) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: dict[int, float] | None = None, constant: float = 0.0):
        self.terms: dict[int, float] = terms if terms is not None else {}
        self.constant = constant

    @classmethod
    def of(cls, item: "Variable | LinExpr | float") -> "LinExpr":
        if isinstance(item, LinExpr):
            return cls(dict(item.terms), item.constant)
        if isinstance(item, Variable):
            return cls({item.index: 1.0})
        return cls({}, float(item))

    @classmethod
    def weighted_sum(cls, pairs: Iterable[tuple["Variable", float]]) -> "LinExpr":
        """Fast path for big sums: avoids repeated temporary expressions."""
        terms: dict[int, float] = {}
        for var, coef in pairs:
            if coef == 0.0:
                continue
            terms[var.index] = terms.get(var.index, 0.0) + coef
        return cls(terms)

    def add_term(self, var: "Variable", coef: float) -> "LinExpr":
        """In-place accumulation (returns self for chaining)."""
        if coef != 0.0:
            self.terms[var.index] = self.terms.get(var.index, 0.0) + coef
        return self

    def __add__(self, other):
        result = LinExpr.of(self)
        other = LinExpr.of(other)
        for index, coef in other.terms.items():
            result.terms[index] = result.terms.get(index, 0.0) + coef
        result.constant += other.constant
        return result

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + (LinExpr.of(other) * -1.0)

    def __rsub__(self, other):
        return (self * -1.0) + other

    def __mul__(self, coefficient: float):
        coefficient = float(coefficient)
        return LinExpr(
            {i: c * coefficient for i, c in self.terms.items()},
            self.constant * coefficient,
        )

    def __rmul__(self, coefficient: float):
        return self * coefficient

    def __neg__(self):
        return self * -1.0

    def __repr__(self) -> str:
        return f"LinExpr(terms={len(self.terms)}, constant={self.constant})"


@dataclass
class Solution:
    """The result of an LP solve.

    Attributes:
        objective: optimal objective value (in the user's sense, i.e.
            negated back when the problem was a maximization).
        values: optimal value per variable index.
        ineq_duals: marginals of the <= constraints, in insertion order.
        eq_duals: marginals of the == constraints, in insertion order.
    """

    objective: float
    values: np.ndarray
    ineq_duals: np.ndarray
    eq_duals: np.ndarray

    def value(self, var: Variable) -> float:
        return float(self.values[var.index])


def _check_solution(result: BackendSolution, maximize: bool) -> Solution:
    """Map an engine solution onto :class:`Solution` or the library errors."""
    if result.status == INFEASIBLE:
        raise InfeasibleError(result.message)
    if result.status == UNBOUNDED:
        # For a maximization the engine solved the negated problem:
        # unbounded below there means unbounded above for the caller.
        raise UnboundedError(result.message)
    if result.status != OPTIMAL:
        raise SolverError(f"LP solve failed ({result.status}): {result.message}")
    objective = -result.objective if maximize else result.objective
    return Solution(float(objective), result.x, result.ineq_duals, result.eq_duals)


class CompiledLP:
    """Frozen constraint matrices; solve repeatedly with fresh objectives.

    Thin wrapper around an immutable
    :class:`~repro.lp.backend.base.LinearProgram`.  Each :meth:`solve`
    is an isolated cold solve on a fresh engine instance; sequences of
    related solves should go through :meth:`reusable`, which saves the
    matrix assembly but not the solve.
    """

    def __init__(self, program: LinearProgram):
        self.program = program
        self.num_vars = program.num_vars

    def _objective_vector(self, objective, maximize: bool) -> np.ndarray:
        vec = dense_objective(self.num_vars, objective)
        if len(vec) != self.num_vars:
            raise SolverError(
                f"objective has {len(vec)} entries, model has {self.num_vars} variables"
            )
        return -vec if maximize else vec

    def solve(self, objective, maximize: bool = False) -> Solution:
        """Solve with a dense objective vector (or sparse index mapping).

        Raises:
            InfeasibleError / UnboundedError / SolverError: per status.
        """
        result = HighsInstance(self.program).solve(
            self._objective_vector(objective, maximize)
        )
        return _check_solution(result, maximize)

    def reusable(self) -> "ReusableLP":
        """A persistent solver instance for repeated objective/RHS swaps."""
        return ReusableLP(self, HighsInstance(self.program))


class ReusableLP:
    """An engine instance bound to one compiled LP (objective/RHS swaps)."""

    def __init__(self, compiled: CompiledLP, instance: HighsInstance):
        self._compiled = compiled
        self._instance = instance

    def solve(
        self,
        objective,
        maximize: bool = False,
        b_eq: np.ndarray | None = None,
    ) -> Solution:
        """Re-solve with a new objective (dense vector or ``{index: coef}``).

        ``b_eq`` replaces the equality right-hand sides in place, which
        is how the min-congestion solver swaps demand matrices without
        rebuilding conservation constraints.
        """
        if isinstance(objective, Mapping):
            if maximize:
                objective = {i: -c for i, c in objective.items()}
            result = self._instance.solve(objective, b_eq=b_eq)
        else:
            result = self._instance.solve(
                self._compiled._objective_vector(objective, maximize), b_eq=b_eq
            )
        return _check_solution(result, maximize)


def _as_index(var: "Variable | int") -> int:
    return var.index if isinstance(var, Variable) else int(var)


class Model:
    """An LP under construction: variables, constraints, one objective.

    Constraint rows append directly onto flat CSR buffers; the
    ``add_le`` / ``add_ge`` / ``add_eq`` expression forms and the
    ``*_terms`` iterable forms share the same storage, so a model can
    mix both freely.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self._vars: list[Variable] = []
        # Incremental CSR buffers (data + column indices + row pointers).
        self._ub_data: list[float] = []
        self._ub_cols: list[int] = []
        self._ub_indptr: list[int] = [0]
        self._ub_rhs: list[float] = []
        self._eq_data: list[float] = []
        self._eq_cols: list[int] = []
        self._eq_indptr: list[int] = [0]
        self._eq_rhs: list[float] = []
        self._objective: LinExpr = LinExpr()
        self._maximize = False

    # -- variables ----------------------------------------------------------

    def add_var(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = math.inf,
    ) -> Variable:
        """Create a variable with the given bounds (default: nonnegative)."""
        if lower > upper:
            raise SolverError(f"variable {name!r}: lower bound {lower} > upper bound {upper}")
        var = Variable(len(self._vars), name, lower, upper)
        self._vars.append(var)
        return var

    def add_vars(self, keys: Iterable[object], prefix: str, lower: float = 0.0) -> dict[object, Variable]:
        """Create a keyed family of variables, e.g. one per edge."""
        return {key: self.add_var(f"{prefix}[{key}]", lower=lower) for key in keys}

    @property
    def num_vars(self) -> int:
        return len(self._vars)

    # -- constraints ----------------------------------------------------------

    def add_le_terms(
        self,
        terms: "Iterable[tuple[Variable | int, float]] | Mapping[int, float]",
        rhs: float,
    ) -> int:
        """Add ``sum(coef * var) <= rhs`` from sparse terms; returns row index.

        Terms append straight onto the CSR buffers — no dense row, no
        intermediate expression.  Duplicate variables are allowed (CSR
        canonicalization sums them on compile); zero coefficients are
        skipped.
        """
        if isinstance(terms, Mapping):
            terms = terms.items()
        data, cols = self._ub_data, self._ub_cols
        for var, coef in terms:
            if coef != 0.0:
                data.append(float(coef))
                cols.append(_as_index(var))
        self._ub_indptr.append(len(data))
        self._ub_rhs.append(float(rhs))
        return len(self._ub_rhs) - 1

    def add_ge_terms(self, terms, rhs: float) -> int:
        """Add ``sum(coef * var) >= rhs`` (stored negated as a <= row)."""
        if isinstance(terms, Mapping):
            terms = terms.items()
        return self.add_le_terms(
            ((var, -coef) for var, coef in terms), -float(rhs)
        )

    def add_eq_terms(
        self,
        terms: "Iterable[tuple[Variable | int, float]] | Mapping[int, float]",
        rhs: float,
    ) -> int:
        """Add ``sum(coef * var) == rhs`` from sparse terms; returns row index."""
        if isinstance(terms, Mapping):
            terms = terms.items()
        data, cols = self._eq_data, self._eq_cols
        for var, coef in terms:
            if coef != 0.0:
                data.append(float(coef))
                cols.append(_as_index(var))
        self._eq_indptr.append(len(data))
        self._eq_rhs.append(float(rhs))
        return len(self._eq_rhs) - 1

    def add_le(self, expr: "LinExpr | Variable | float", rhs: "LinExpr | Variable | float") -> int:
        """Add ``expr <= rhs``; returns the inequality row index (for duals)."""
        diff = LinExpr.of(expr) - LinExpr.of(rhs)
        return self.add_le_terms(diff.terms, -diff.constant)

    def add_ge(self, expr, rhs) -> int:
        """Add ``expr >= rhs`` (stored as ``-expr <= -rhs``)."""
        return self.add_le(LinExpr.of(rhs), LinExpr.of(expr))

    def add_eq(self, expr, rhs) -> int:
        """Add ``expr == rhs``; returns the equality row index (for duals)."""
        diff = LinExpr.of(expr) - LinExpr.of(rhs)
        return self.add_eq_terms(diff.terms, -diff.constant)

    # -- objective & solving -------------------------------------------------

    def minimize(self, expr: "LinExpr | Variable") -> None:
        self._objective = LinExpr.of(expr)
        self._maximize = False

    def maximize(self, expr: "LinExpr | Variable") -> None:
        self._objective = LinExpr.of(expr)
        self._maximize = True

    def compile(self) -> CompiledLP:
        """Freeze constraints into sparse matrices (objective supplied later)."""
        n = len(self._vars)

        def assemble(data, cols, indptr) -> sparse.csr_matrix | None:
            if len(indptr) == 1:
                return None
            matrix = sparse.csr_matrix(
                (
                    np.asarray(data, dtype=float),
                    np.asarray(cols, dtype=np.int32),
                    np.asarray(indptr, dtype=np.int64),
                ),
                shape=(len(indptr) - 1, n),
            )
            # Canonicalize: sum duplicate (row, col) entries, sort indices —
            # the invariant LinearProgram promises the engine.
            matrix.sum_duplicates()
            matrix.sort_indices()
            return matrix

        program = LinearProgram(
            num_vars=n,
            a_ub=assemble(self._ub_data, self._ub_cols, self._ub_indptr),
            b_ub=np.asarray(self._ub_rhs, dtype=float) if self._ub_rhs else None,
            a_eq=assemble(self._eq_data, self._eq_cols, self._eq_indptr),
            b_eq=np.asarray(self._eq_rhs, dtype=float) if self._eq_rhs else None,
            col_lower=np.array([v.lower for v in self._vars], dtype=float),
            col_upper=np.array([v.upper for v in self._vars], dtype=float),
        )
        return CompiledLP(program)

    def objective_vector(self, expr: "LinExpr | Variable | None" = None) -> np.ndarray:
        """Dense coefficient vector for ``expr`` (default: the set objective)."""
        source = LinExpr.of(expr) if expr is not None else self._objective
        vec = np.zeros(len(self._vars))
        for index, coef in source.terms.items():
            vec[index] = coef
        return vec

    def solve(self) -> Solution:
        """Compile and solve with the objective set via minimize/maximize."""
        compiled = self.compile()
        solution = compiled.solve(self.objective_vector(), maximize=self._maximize)
        # The objective's constant term is not part of the vector; add it back.
        solution.objective += self._objective.constant
        return solution

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_vars}, "
            f"le={len(self._ub_indptr) - 1}, eq={len(self._eq_indptr) - 1})"
        )


def add_flow_conservation(
    model: Model,
    flow: Mapping[tuple[Hashable, Hashable], Variable],
    sink: Hashable,
    demands: Mapping[tuple[Hashable, Hashable], float] | None = None,
    demand_vars: Mapping[tuple[Hashable, Hashable], Variable] | None = None,
) -> list[Hashable]:
    """Conservation rows of the commodity toward ``sink``.

    ``flow`` maps each edge ``(u, v)`` the commodity may use to its
    variable.  One row ``outflow − inflow − demand_vars[(node, sink)] =
    demands[(node, sink)]`` is written per node an edge touches, except
    ``sink``, in first-touch order (tail, then head, over ``flow``'s
    edges); a pair missing from ``demands`` / ``demand_vars`` contributes
    0 / no term.  Returns the nodes, in row order.
    """
    demands = demands or {}
    demand_vars = demand_vars or {}
    rows: dict[Hashable, LinExpr] = {}
    for (tail, head), var in flow.items():
        rows.setdefault(tail, LinExpr()).add_term(var, 1.0)
        rows.setdefault(head, LinExpr()).add_term(var, -1.0)
    rows.pop(sink, None)
    for node, balance in rows.items():
        if (node, sink) in demand_vars:
            balance.add_term(demand_vars[(node, sink)], -1.0)
        model.add_eq(balance, demands.get((node, sink), 0.0))
    return list(rows)
