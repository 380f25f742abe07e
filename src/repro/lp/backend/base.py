"""The LP form the engine solves, and the shapes it answers in.

:mod:`repro.lp.model` compiles every program to one immutable
:class:`LinearProgram` (sparse standard form); the HiGHS engine
(:mod:`repro.lp.backend.highs_backend`) answers with a
:class:`BackendSolution` whose status is *normalized*, so the modeling
layer raises the library's exceptions without reading engine codes.
The ``linprog`` reference (:mod:`repro.lp.backend.scipy_backend`)
answers in the same shapes, which is what lets the parity suite compare
the two bit for bit.  The contract:

* **Sense.** A solve always *minimizes* ``objective @ x``; callers that
  maximize negate the vector and the returned objective themselves (the
  modeling layer does this), so dual signs are uniform.
* **Statuses.** Exactly one of :data:`OPTIMAL`, :data:`INFEASIBLE`,
  :data:`UNBOUNDED`, or :data:`ERROR`.  An infeasible-or-unbounded
  answer is :data:`ERROR`, never a guess.
* **Duals.** ``ineq_duals`` / ``eq_duals`` follow scipy's ``linprog``
  marginal convention: partial derivatives of the *minimized* objective
  with respect to the constraint right-hand sides (non-positive for
  binding ``<=`` rows of a minimization).
* **Numerical tolerances.** HiGHS runs at its default
  feasibility/optimality tolerances (1e-7); no tolerance option is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np
from scipy import sparse

from repro.exceptions import SolverError

#: Normalized solve statuses.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ERROR = "error"


@dataclass(frozen=True)
class LinearProgram:
    """An immutable sparse LP in scipy standard form.

    ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``, ``col_lower <= x <=
    col_upper``; the objective vector is supplied per solve.  Matrices
    are CSR with canonical (duplicate-free, sorted) indices so the
    engine can take the arrays without re-validation.

    Attributes:
        num_vars: number of columns.
        a_ub: ``<=`` constraint matrix, or ``None`` when there are none.
        b_ub: right-hand sides of the ``<=`` rows.
        a_eq: ``==`` constraint matrix, or ``None``.
        b_eq: right-hand sides of the ``==`` rows.
        col_lower: per-variable lower bounds (finite; default 0).
        col_upper: per-variable upper bounds (``inf`` when free above).
    """

    num_vars: int
    a_ub: sparse.csr_matrix | None
    b_ub: np.ndarray | None
    a_eq: sparse.csr_matrix | None
    b_eq: np.ndarray | None
    col_lower: np.ndarray
    col_upper: np.ndarray

    @property
    def num_ub(self) -> int:
        return 0 if self.a_ub is None else self.a_ub.shape[0]

    @property
    def num_eq(self) -> int:
        return 0 if self.a_eq is None else self.a_eq.shape[0]

    @cached_property
    def scipy_bounds(self) -> list[tuple[float, float | None]]:
        """The ``bounds`` list ``scipy.optimize.linprog`` expects (cached)."""
        return [
            (float(lo), None if np.isinf(hi) else float(hi))
            for lo, hi in zip(self.col_lower, self.col_upper)
        ]

    @cached_property
    def stacked_csc(self) -> tuple[sparse.csc_matrix, np.ndarray, np.ndarray]:
        """``(A, row_lower, row_upper)`` with ub rows stacked above eq rows.

        The row order (inequalities first) is the contract for splitting
        row duals back into ``ineq_duals`` / ``eq_duals`` and matches
        scipy's internal stacking, so marginals agree with the reference.
        """
        blocks = []
        lower: list[np.ndarray] = []
        upper: list[np.ndarray] = []
        if self.a_ub is not None:
            blocks.append(self.a_ub)
            lower.append(np.full(self.num_ub, -np.inf))
            upper.append(np.asarray(self.b_ub, dtype=float))
        if self.a_eq is not None:
            blocks.append(self.a_eq)
            lower.append(np.asarray(self.b_eq, dtype=float))
            upper.append(np.asarray(self.b_eq, dtype=float))
        if not blocks:
            empty = sparse.csc_matrix((0, self.num_vars))
            return empty, np.empty(0), np.empty(0)
        return (
            sparse.vstack(blocks).tocsc(),
            np.concatenate(lower),
            np.concatenate(upper),
        )


@dataclass
class BackendSolution:
    """One solve, in the minimized sense (see module docstring).

    Attributes:
        status: one of :data:`OPTIMAL` / :data:`INFEASIBLE` /
            :data:`UNBOUNDED` / :data:`ERROR`.
        message: engine diagnostic for non-optimal statuses.
        objective: minimized objective value (valid only when optimal).
        x: primal solution (valid only when optimal).
        ineq_duals: marginals of the ``<=`` rows, scipy convention.
        eq_duals: marginals of the ``==`` rows, scipy convention.
    """

    status: str
    message: str
    objective: float
    x: np.ndarray
    ineq_duals: np.ndarray
    eq_duals: np.ndarray


def dense_objective(
    num_vars: int, objective: "np.ndarray | Mapping[int, float]"
) -> np.ndarray:
    """Normalize a dense vector or sparse ``{column: coef}`` objective.

    Raises:
        SolverError: a sparse objective names a column outside
            ``0 <= index < num_vars``.
    """
    if isinstance(objective, Mapping):
        vec = np.zeros(num_vars)
        for index, coef in objective.items():
            if not 0 <= index < num_vars:
                raise SolverError(
                    f"objective names column {index}, model has {num_vars} variables"
                )
            vec[index] = coef
        return vec
    return np.asarray(objective, dtype=float)


def equality_rhs(program: LinearProgram, b_eq) -> np.ndarray:
    """``b_eq`` as a float vector, checked against ``program``'s ``==`` rows.

    Raises:
        ValueError: ``program`` has no equality rows, or ``b_eq`` does
            not have one entry per row.
    """
    if program.b_eq is None:
        raise ValueError("program has no equality rows to update")
    rhs = np.asarray(b_eq, dtype=float)
    if rhs.shape != program.b_eq.shape:
        raise ValueError(
            f"b_eq has shape {rhs.shape}, program has {program.num_eq} equality rows"
        )
    return rhs
