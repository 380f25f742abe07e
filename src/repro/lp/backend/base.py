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
  feasibility/optimality tolerances (HiGHS and Gurobi both default to
  1e-7); the cross-backend parity suite asserts objective agreement
  within 1e-7 on the repository's LP families, and callers must not
  expect agreement tighter than that between *different* engines.
* **Instances and warm starts.** :meth:`SolverBackend.instance` returns
  a stateful :class:`BackendInstance` bound to one constraint matrix.
  In the default *isolated* mode every ``solve`` must return exactly
  what a fresh one-shot solve would (bit-identical for the same engine)
  — any internal basis is discarded per call.  With ``warm=True`` the
  instance may chain the previous solve's basis: objectives still match
  a cold solve within the engine tolerance, but *solution vectors may
  differ at degenerate optima* and depend on the solve sequence.  An
  instance must invalidate its cached basis whenever a solve does not
  end :data:`OPTIMAL` and when :meth:`BackendInstance.invalidate_basis`
  is called; the constraint matrix of an instance never changes (only
  objectives and equality right-hand sides may be swapped).
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
    """Normalize a dense vector or sparse ``{column: coef}`` objective."""
    if isinstance(objective, Mapping):
        vec = np.zeros(num_vars)
        for index, coef in objective.items():
            vec[index] = coef
        return vec
    return np.asarray(objective, dtype=float)


class BackendInstance(abc.ABC):
    """A stateful handle on one LP: fixed matrix, swappable objective/RHS.

    Obtained from :meth:`SolverBackend.instance`; see the module
    docstring for the isolated/warm contract.
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
        """

    @abc.abstractmethod
    def invalidate_basis(self) -> None:
        """Drop any cached basis; the next solve starts cold."""


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

    def instance(self, program: LinearProgram, warm: bool = False) -> BackendInstance:
        """A reusable handle on ``program`` (default: cold per solve).

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
            self._b_eq = np.asarray(b_eq, dtype=float)
        program = self._program
        if self._b_eq is not program.b_eq:
            from dataclasses import replace

            program = replace(program, b_eq=self._b_eq)
        return self._backend.solve(
            program, dense_objective(program.num_vars, objective)
        )

    def invalidate_basis(self) -> None:  # cold every call already
        return None
