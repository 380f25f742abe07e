"""The scipy backend: one ``linprog(method="highs")`` call per solve.

This is the reference engine — byte-for-byte the call the modeling
layer made before backends existed, kept as the semantics oracle for
the parity suite.  Solves run at scipy's HiGHS defaults (primal/dual
feasibility 1e-7); no tolerance options are forwarded.  Statuses map
``linprog.status`` 0 → :data:`~repro.lp.backend.base.OPTIMAL`, 2 →
:data:`~repro.lp.backend.base.INFEASIBLE`, 3 →
:data:`~repro.lp.backend.base.UNBOUNDED`, anything else →
:data:`~repro.lp.backend.base.ERROR`.  Duals come straight from
``result.ineqlin.marginals`` / ``result.eqlin.marginals``.

The backend has no incremental interface, so its instances inherit the
cold-per-solve fallback; it exists for differential testing and as an
escape hatch (``REPRO_LP_BACKEND=scipy``), not for speed.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.lp.backend import base


class ScipyBackend(base.SolverBackend):
    """``scipy.optimize.linprog`` with the HiGHS method."""

    name = "scipy"
    thread_safe = True

    def available(self) -> bool:
        return True

    def solve(self, program: base.LinearProgram, objective: np.ndarray) -> base.BackendSolution:
        result = linprog(
            objective,
            A_ub=program.a_ub,
            b_ub=program.b_ub,
            A_eq=program.a_eq,
            b_eq=program.b_eq,
            bounds=program.scipy_bounds,
            method="highs",
        )
        status = {
            0: base.OPTIMAL,
            2: base.INFEASIBLE,
            3: base.UNBOUNDED,
        }.get(result.status, base.ERROR)
        if status != base.OPTIMAL:
            return base.BackendSolution(
                status=status,
                message=str(result.message),
                objective=float("nan"),
                x=np.empty(0),
                ineq_duals=np.empty(0),
                eq_duals=np.empty(0),
            )
        ineq = (
            np.asarray(result.ineqlin.marginals, dtype=float)
            if program.a_ub is not None
            else np.empty(0)
        )
        eq = (
            np.asarray(result.eqlin.marginals, dtype=float)
            if program.a_eq is not None
            else np.empty(0)
        )
        return base.BackendSolution(
            status=base.OPTIMAL,
            message=str(result.message),
            objective=float(result.fun),
            x=np.asarray(result.x, dtype=float),
            ineq_duals=ineq,
            eq_duals=eq,
        )
