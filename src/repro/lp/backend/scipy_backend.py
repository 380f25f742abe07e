"""The ``linprog`` reference: one ``linprog(method="highs")`` call per solve.

This is byte-for-byte the call the modeling layer made before it drove
HiGHS directly, kept as the semantics oracle for the parity suite
(``tests/test_lp_backends.py``), which calls it by name; no run-time
switch routes a library solve through it.  Solves run at scipy's HiGHS
defaults (primal/dual feasibility 1e-7).  Statuses map
``linprog.status`` 0 → :data:`~repro.lp.backend.base.OPTIMAL`, 2 →
:data:`~repro.lp.backend.base.INFEASIBLE`, 3 →
:data:`~repro.lp.backend.base.UNBOUNDED`, anything else →
:data:`~repro.lp.backend.base.ERROR`.  Duals come straight from
``result.ineqlin.marginals`` / ``result.eqlin.marginals``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.lp.backend import base


def linprog_reference(
    program: base.LinearProgram, objective: np.ndarray
) -> base.BackendSolution:
    """Minimize ``objective @ x`` over ``program`` with one cold ``linprog``."""
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
