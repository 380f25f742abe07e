"""The solver-backend interface: one LP form, many engines.

Every backend consumes the same immutable :class:`LinearProgram` — the
sparse standard form :mod:`repro.lp.model` compiles to — and produces a
:class:`BackendSolution` with a *normalized* status string, so the
modeling layer can raise the library's exceptions without knowing which
engine solved the problem.  The contract every backend must honor:

* **Sense.** ``solve`` always *minimizes* ``objective @ x``; callers
  that maximize negate the vector and the returned objective themselves
  (the modeling layer does this), so dual signs are uniform across
  backends.
* **Statuses.** Exactly one of :data:`OPTIMAL`, :data:`INFEASIBLE`,
  :data:`UNBOUNDED`, or :data:`ERROR`.  A backend that cannot
  distinguish infeasible from unbounded must either disambiguate (e.g.
  re-solve without presolve/dual reductions) or report :data:`ERROR` —
  never guess.
* **Duals.** ``ineq_duals`` / ``eq_duals`` follow scipy's ``linprog``
  marginal convention: partial derivatives of the *minimized* objective
  with respect to the constraint right-hand sides (non-positive for
  binding ``<=`` rows of a minimization).  Backends whose native duals
  use the opposite sign (none of the bundled ones do) must flip before
  returning.
* **Numerical tolerances.** Backends run at their engine's default
  feasibility/optimality tolerances (1e-7 for HiGHS); the cross-backend
  parity suite asserts objective agreement within 1e-7 on the
  repository's LP families, and callers must not expect agreement
  tighter than that between *different* engines.
* **Instances.** :meth:`SolverBackend.instance` returns a stateful
  :class:`BackendInstance` bound to one constraint matrix.  Every
  ``solve`` must return exactly what a fresh one-shot solve would
  (bit-identical for the same engine): no basis or other engine state
  carries over from one solve to the next, so results never depend on
  solve order.  The constraint matrix of an instance never changes
  (only objectives and equality right-hand sides may be swapped).
* **Threads.** A backend sets :attr:`SolverBackend.thread_safe` only
  when separate instances share no engine state, so they may solve at
  once on separate threads.  LP sweeps run serially on any other
  backend.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np
from scipy import sparse

from repro.exceptions import SolverError

#: Normalized solve statuses shared by every backend.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ERROR = "error"


class BackendUnavailable(RuntimeError):
    """Raised when a backend is selected but cannot run here.

    Distinct from a solve failure: the engine itself is missing (import
    failed, no license), so no :class:`BackendSolution` exists to carry
    an :data:`ERROR` status.
    """


@dataclass(frozen=True)
class LinearProgram:
    """An immutable sparse LP in scipy standard form.

    ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``, ``col_lower <= x <=
    col_upper``; the objective vector is supplied per solve.  Matrices
    are CSR with canonical (duplicate-free, sorted) indices so backends
    can hand the arrays to their engines without re-validation.

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
        scipy's internal stacking, so marginals agree across backends.
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
    """One backend solve, in the minimized sense (see module docstring).

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


class BackendInstance(abc.ABC):
    """A stateful handle on one LP: fixed matrix, swappable objective/RHS.

    Obtained from :meth:`SolverBackend.instance`; every solve is
    isolated (see the module docstring).
    """

    @abc.abstractmethod
    def solve(
        self,
        objective: "np.ndarray | Mapping[int, float]",
        b_eq: np.ndarray | None = None,
    ) -> BackendSolution:
        """Minimize ``objective`` (optionally with fresh equality RHS).

        Args:
            objective: dense vector or sparse ``{column: coefficient}``
                mapping (absent columns are zero).
            b_eq: replacement equality right-hand sides; ``None`` keeps
                the current ones.

        Raises:
            ValueError: ``b_eq`` does not have one entry per equality row.
        """


class SolverBackend(abc.ABC):
    """One LP engine: a name, an availability probe, and solve paths."""

    #: Registry identifier (the ``REPRO_LP_BACKEND`` value selecting it).
    name: str = "abstract"
    #: Whether separate instances may solve concurrently on separate
    #: threads (see the module docstring); off unless a backend opts in.
    thread_safe: bool = False

    @abc.abstractmethod
    def available(self) -> bool:
        """Whether the engine can solve on this machine (imports, license)."""

    @abc.abstractmethod
    def solve(
        self, program: LinearProgram, objective: np.ndarray
    ) -> BackendSolution:
        """One-shot cold solve (minimize)."""

    def instance(self, program: LinearProgram) -> BackendInstance:
        """A reusable handle on ``program``; every solve is cold.

        Backends without an incremental engine interface inherit this
        wrapper, which re-enters :meth:`solve` each call — correct, just
        not faster.
        """
        return _OneShotInstance(self, program)


class _OneShotInstance(BackendInstance):
    """Fallback instance: each solve is an independent cold solve."""

    def __init__(self, backend: SolverBackend, program: LinearProgram):
        self._backend = backend
        self._program = program
        self._b_eq = program.b_eq

    def solve(self, objective, b_eq=None):
        if b_eq is not None:
            self._b_eq = equality_rhs(self._program, b_eq)
        program = self._program
        if self._b_eq is not program.b_eq:
            from dataclasses import replace

            program = replace(program, b_eq=self._b_eq)
        return self._backend.solve(
            program, dense_objective(program.num_vars, objective)
        )
