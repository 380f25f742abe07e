"""A fixed reference computation that measures how fast the machine is right now.

On a shared host the same pass can take 20-30% longer from one minute to
the next while other tenants load the machine, and its CPU time grows
with its wall time, so the slowdown is in the core, not in scheduling.
The benchmark therefore times this computation next to every measured
interval and scales the interval by ``REFERENCE_SECONDS`` over the
reference's own time: every reported time is in *reference seconds*, the
seconds the interval would take on a machine where this computation
takes ``REFERENCE_SECONDS``.

The computation mixes what the program spends its time on -- HiGHS LP
solves, scipy L-BFGS-B with numpy gradients, and Python dict loops --
and calls nothing in the program, so no change to the program can move
it.  Raw seconds are kept beside every scaled value.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog, minimize

#: Nominal duration of :func:`reference_seconds` (about its quiet-machine
#: median on the 2-vCPU Xeon the bounds were set on).
REFERENCE_SECONDS = 0.1

_RNG = np.random.default_rng(20161101)
_LP_MATRIX = _RNG.uniform(0.0, 1.0, (60, 120))
_LP_RHS = _LP_MATRIX.sum(axis=1)
_LP_COST = -_RNG.uniform(0.0, 1.0, 120)


def _rosenbrock(x: np.ndarray) -> tuple[float, np.ndarray]:
    step = x[1:] - x[:-1] ** 2
    value = float(np.sum(100.0 * step**2 + (1.0 - x[:-1]) ** 2))
    gradient = np.zeros_like(x)
    gradient[:-1] = -400.0 * x[:-1] * step - 2.0 * (1.0 - x[:-1])
    gradient[1:] += 200.0 * step
    return value, gradient


def reference_seconds() -> float:
    """Run the fixed computation once; its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(12):
        linprog(_LP_COST, A_ub=_LP_MATRIX, b_ub=_LP_RHS, bounds=(0.0, 1.0), method="highs")
    for _ in range(2):
        minimize(_rosenbrock, np.full(30, -1.0), jac=True, method="L-BFGS-B",
                 options={"maxiter": 300})
    totals: dict[int, float] = {}
    for i in range(120000):
        totals[i % 997] = totals.get(i % 997, 0.0) + 0.5 * i
    return time.perf_counter() - start
