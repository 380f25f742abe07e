"""Linear-programming substrate with pluggable solver backends.

The paper's toolchain was AMPL + MOSEK; this package replaces it with a
small modeling layer (:mod:`repro.lp.model`), a solver-backend registry
(:mod:`repro.lp.backend` — direct HiGHS by default, scipy's ``linprog``
as the reference engine), and problem-specific builders:

* :mod:`repro.lp.mcf` — min-congestion multicommodity flow (``OPTU``);
* :mod:`repro.lp.dag_flow` — demands-aware optimum restricted to DAGs;
* :mod:`repro.lp.worst_case` — the per-edge adversarial ("slave") LP;
* :mod:`repro.lp.certificate` — the Theorem 5 dual certificate.

Numerical contract (details in ``docs/lp_backends.md``): both bundled
backends run HiGHS at its default tolerances (1e-7 primal/dual
feasibility), every solve is an isolated cold solve, and the parity
suite pins cross-backend objective agreement to 1e-7 on the
repository's LP families.  Normalized statuses map onto ``linprog``
statuses as

    normalized      linprog.status
    ------------    ----------------------------
    optimal         0
    infeasible      2
    unbounded       3
    error           1, 4 (limits/numerical)

and surface as ``InfeasibleError`` / ``UnboundedError`` / ``SolverError``
at the modeling layer.
"""

from repro.lp.model import LinExpr, Model, Solution, Variable
from repro.lp.mcf import MinCongestionResult, min_congestion
from repro.lp.dag_flow import dag_optimal_congestion, induced_splitting_ratios

__all__ = [
    "LinExpr",
    "Model",
    "Solution",
    "Variable",
    "MinCongestionResult",
    "min_congestion",
    "dag_optimal_congestion",
    "induced_splitting_ratios",
]
