"""Optional Gurobi backend, behind a soft import and a license probe.

``gurobipy`` is never a hard dependency: importing this module never
raises, :meth:`GurobiBackend.available` answers ``False`` when either
the package or a usable license is absent, and the registry only
exposes the backend when the probe succeeds.  The environment is the
quiet-startup idiom — an empty :class:`gurobipy.Env` with ``OutputFlag``
and ``LogToConsole`` zeroed *before* ``start()`` — shared by every model
the backend builds.

Status mapping (the gurobi↔scipy correspondence the parity suite pins):

========================  ==========================================
Gurobi ``Status``         normalized status
========================  ==========================================
``OPTIMAL`` (2)           ``optimal``   (scipy/linprog status 0)
``INFEASIBLE`` (3)        ``infeasible`` (linprog status 2)
``UNBOUNDED`` (5)         ``unbounded``  (linprog status 3)
``INF_OR_UNBD`` (4)       re-solved with ``DualReductions=0`` to
                          disambiguate; still ambiguous → ``error``
anything else             ``error``     (linprog status 1/4)
========================  ==========================================

Tolerances: Gurobi's defaults (``FeasibilityTol`` / ``OptimalityTol``
1e-6, tightened nowhere) differ from HiGHS' 1e-7 defaults, so
cross-backend objective agreement is asserted at 1e-7 relative only in
the parity suite — do not expect solution *vectors* to match across
engines at degenerate optima.  Duals come from constraint ``Pi``
attributes, which already follow the minimized-marginal sign convention
the backend contract requires.
"""

from __future__ import annotations

import numpy as np

from repro.lp.backend import base

try:  # soft dependency: absence just disables the backend
    import gurobipy as _gp
except ImportError:  # pragma: no cover - exercised on the optional CI leg
    _gp = None

_env = None
_env_failed = False


def _environment():
    """The shared quiet Env, or ``None`` when gurobi can't start one."""
    global _env, _env_failed
    if _gp is None or _env_failed:
        return None
    if _env is None:
        try:
            env = _gp.Env(empty=True)
            env.setParam("OutputFlag", 0)
            env.setParam("LogToConsole", 0)
            env.start()
            _env = env
        except _gp.GurobiError:  # no license / expired license
            _env_failed = True
            return None
    return _env


class GurobiInstance(base.BackendInstance):
    """A persistent gurobi model with swappable objective and equality RHS."""

    def __init__(self, program: base.LinearProgram, warm: bool):
        self._program = program
        self._warm = warm
        env = _environment()
        if env is None:
            raise base.BackendUnavailable("gurobi backend is not available")
        self._model = _gp.Model(env=env)
        self._x = self._model.addMVar(
            program.num_vars,
            lb=np.asarray(program.col_lower, dtype=float),
            ub=np.asarray(program.col_upper, dtype=float),
        )
        self._ub_rows = (
            self._model.addMConstr(
                program.a_ub, self._x, _gp.GRB.LESS_EQUAL,
                np.asarray(program.b_ub, dtype=float),
            )
            if program.a_ub is not None
            else None
        )
        self._eq_rows = (
            self._model.addMConstr(
                program.a_eq, self._x, _gp.GRB.EQUAL,
                np.asarray(program.b_eq, dtype=float),
            )
            if program.a_eq is not None
            else None
        )
        self._model.update()

    def solve(self, objective, b_eq=None) -> base.BackendSolution:
        cost = base.dense_objective(self._program.num_vars, objective)
        self._model.setObjective(cost @ self._x, _gp.GRB.MINIMIZE)
        if b_eq is not None:
            if self._eq_rows is None:
                raise ValueError("program has no equality rows to update")
            self._eq_rows.setAttr("RHS", np.asarray(b_eq, dtype=float))
        if not self._warm:
            self._model.reset()
        self._model.optimize()
        status = self._model.Status
        if status == _gp.GRB.INF_OR_UNBD:
            # Presolve's dual reductions blur the two; re-solve without
            # them, exactly once, to get a definite verdict.
            self._model.setParam("DualReductions", 0)
            self._model.reset()
            self._model.optimize()
            status = self._model.Status
            self._model.setParam("DualReductions", 1)
        if status == _gp.GRB.OPTIMAL:
            return base.BackendSolution(
                status=base.OPTIMAL,
                message="Optimization terminated successfully.",
                objective=float(self._model.ObjVal),
                x=np.asarray(self._x.X, dtype=float),
                ineq_duals=(
                    np.asarray(self._ub_rows.getAttr("Pi"), dtype=float)
                    if self._ub_rows is not None
                    else np.empty(0)
                ),
                eq_duals=(
                    np.asarray(self._eq_rows.getAttr("Pi"), dtype=float)
                    if self._eq_rows is not None
                    else np.empty(0)
                ),
            )
        mapped = {
            _gp.GRB.INFEASIBLE: base.INFEASIBLE,
            _gp.GRB.UNBOUNDED: base.UNBOUNDED,
        }.get(status, base.ERROR)
        return base.BackendSolution(
            status=mapped,
            message=f"Gurobi status code: {status}",
            objective=float("nan"),
            x=np.empty(0),
            ineq_duals=np.empty(0),
            eq_duals=np.empty(0),
        )

    def invalidate_basis(self) -> None:
        self._model.reset()


class GurobiBackend(base.SolverBackend):
    """Optional ``gurobi`` backend (requires gurobipy and a license)."""

    name = "gurobi"
    # Every model shares one Env, which gurobi does not allow threads to
    # use at once, and each solve defaults to every core anyway.
    thread_safe = False

    def available(self) -> bool:
        return _environment() is not None

    def solve(self, program: base.LinearProgram, objective: np.ndarray) -> base.BackendSolution:
        return GurobiInstance(program, warm=False).solve(objective)

    def instance(self, program: base.LinearProgram, warm: bool = False) -> GurobiInstance:
        return GurobiInstance(program, warm=warm)
