"""The default backend: scipy's vendored HiGHS bindings, driven directly.

``scipy.optimize._highspy`` ships the raw HiGHS C++ bindings that
``linprog(method="highs")`` itself runs on.  Driving them directly
skips linprog's per-call wrapper work (bounds normalization, model
re-validation, result marshalling) and — the real win — lets one
:class:`HighsInstance` keep the assembled ``HighsLp`` model across the
hundreds of objective/RHS swaps the worst-case oracle and margin sweeps
perform.

Semantics relative to the scipy backend:

* **Tolerances.** The engine runs at HiGHS defaults (primal/dual
  feasibility 1e-7), identical to what linprog uses; no options besides
  ``output_flag=False`` are set.
* **Status mapping.** ``kOptimal`` → ``optimal``, ``kInfeasible`` →
  ``infeasible``, ``kUnbounded`` → ``unbounded``; ``kUnboundedOrInfeasible``
  and every other model status → ``error`` — the same buckets scipy's
  ``linprog`` statuses 0/2/3/other collapse to, so the two backends are
  status-identical by construction.
* **Duals.** Raw HiGHS row duals, split at the ub/eq boundary of the
  stacked row order — exactly how scipy derives ``marginals``, with no
  sign adjustment.
* **Determinism.** Each solve fully resets the engine (``clear()``)
  and re-passes the prepared model, so every solve *is* a cold solve
  by construction — bit-identical to this backend's one-shot path and
  independent of solve order, safe for golden tables and parallel
  sweeps.  (``clearSolver()`` is not enough: HiGHS retains internal
  state, e.g. its cost-perturbation stream, that steers degenerate
  vertex selection at the last ulp.)  Because the engine and effective
  options exactly match linprog's, solves are also bit-identical to
  the ``scipy`` backend on every family tested — pinned as a canary by
  the parity suite, with backend fingerprints kept as defense-in-depth.
"""

from __future__ import annotations

import numpy as np

from repro.lp.backend import base

try:  # vendored bindings; private module, so probe defensively
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # pragma: no cover - scipy always bundles it today
    _highs_core = None


def _build_model(program: base.LinearProgram) -> "_highs_core.HighsLp":
    matrix, row_lower, row_upper = program.stacked_csc
    lp = _highs_core.HighsLp()
    lp.num_col_ = program.num_vars
    lp.num_row_ = matrix.shape[0]
    lp.a_matrix_.num_col_ = program.num_vars
    lp.a_matrix_.num_row_ = matrix.shape[0]
    lp.col_cost_ = np.zeros(program.num_vars)
    lp.col_lower_ = np.asarray(program.col_lower, dtype=float)
    lp.col_upper_ = np.asarray(program.col_upper, dtype=float)
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.format_ = _highs_core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = matrix.indptr.astype(np.int64)
    lp.a_matrix_.index_ = matrix.indices.astype(np.int32)
    lp.a_matrix_.value_ = matrix.data.astype(np.float64)
    return lp


def _extract(
    highs: "_highs_core._Highs", program: base.LinearProgram
) -> base.BackendSolution:
    status = highs.getModelStatus()
    if status == _highs_core.HighsModelStatus.kOptimal:
        solution = highs.getSolution()
        row_dual = np.asarray(solution.row_dual, dtype=float)
        num_ub = program.num_ub
        return base.BackendSolution(
            status=base.OPTIMAL,
            message="Optimization terminated successfully.",
            objective=float(highs.getInfo().objective_function_value),
            x=np.asarray(solution.col_value, dtype=float),
            ineq_duals=row_dual[:num_ub],
            eq_duals=row_dual[num_ub:],
        )
    if status == _highs_core.HighsModelStatus.kInfeasible:
        mapped = base.INFEASIBLE
    elif status == _highs_core.HighsModelStatus.kUnbounded:
        mapped = base.UNBOUNDED
    else:
        mapped = base.ERROR
    return base.BackendSolution(
        status=mapped,
        message=f"HiGHS model status: {status.name}",
        objective=float("nan"),
        x=np.empty(0),
        ineq_duals=np.empty(0),
        eq_duals=np.empty(0),
    )


class HighsInstance(base.BackendInstance):
    """A prepared HiGHS model: swap costs/RHS, re-solve.

    The instance owns one ``_Highs`` object plus the prebuilt
    ``HighsLp`` (the expensive part: CSC conversion, bounds assembly —
    done once).  Each solve bakes the current cost/RHS into the
    prepared model, fully resets the engine (``clear()``), and
    re-passes it — so every solve *is* a cold solve by construction,
    not by best-effort state reset (see the module docstring).
    """

    def __init__(self, program: base.LinearProgram):
        self._program = program
        self._highs = _highs_core._Highs()
        self._model = _build_model(program)
        # Private row-bound copies: b_eq swaps mutate these, never the
        # arrays cached on the (shared, frozen) program.
        _, row_lower, row_upper = program.stacked_csc
        self._row_lower = row_lower.copy()
        self._row_upper = row_upper.copy()
        self._b_eq = (
            np.asarray(program.b_eq, dtype=float).copy()
            if program.b_eq is not None
            else None
        )

    def _bake_b_eq(self, b_eq: np.ndarray | None) -> None:
        if b_eq is None:
            return
        new_rhs = base.equality_rhs(self._program, b_eq)
        if np.array_equal(new_rhs, self._b_eq):
            return
        offset = self._program.num_ub
        self._row_lower[offset:] = new_rhs
        self._row_upper[offset:] = new_rhs
        self._model.row_lower_ = self._row_lower
        self._model.row_upper_ = self._row_upper
        self._b_eq = new_rhs.copy()

    def solve(self, objective, b_eq=None) -> base.BackendSolution:
        self._model.col_cost_ = base.dense_objective(self._program.num_vars, objective)
        self._bake_b_eq(b_eq)
        self._highs.clear()
        self._highs.setOptionValue("output_flag", False)
        # Match linprog's effective option set (it forces presolve "on"
        # where the engine default is "choose").
        self._highs.setOptionValue("presolve", "on")
        self._highs.passModel(self._model)
        self._highs.run()
        return _extract(self._highs, self._program)


class HighsBackend(base.SolverBackend):
    """Direct vendored-HiGHS backend (the default, ``highs``)."""

    name = "highs"
    thread_safe = True

    def available(self) -> bool:
        return _highs_core is not None

    def solve(self, program: base.LinearProgram, objective: np.ndarray) -> base.BackendSolution:
        return HighsInstance(program).solve(objective)

    def instance(self, program: base.LinearProgram) -> HighsInstance:
        return HighsInstance(program)
