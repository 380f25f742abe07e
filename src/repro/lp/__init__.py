"""Linear-programming substrate on one engine: HiGHS, driven directly.

The paper's toolchain was AMPL + MOSEK; this package replaces it with a
small modeling layer (:mod:`repro.lp.model`), one LP engine
(:mod:`repro.lp.backend` — scipy's vendored HiGHS bindings, with
scipy's ``linprog`` kept as a reference that only tests call), and
problem-specific builders:

* :mod:`repro.lp.mcf` — min-congestion multicommodity flow (``OPTU``);
* :mod:`repro.lp.dag_flow` — demands-aware optimum restricted to DAGs;
* :mod:`repro.lp.worst_case` — the per-edge adversarial ("slave") LP;
* :mod:`repro.lp.cutting_plane` — the adversarial cutting-plane loop;
* :mod:`repro.lp.theorem5` — the slave LP's Theorem 5 dual: fixed-flow
  certificates, the exact Applegate-Cohen LP, the in-DAG lower bound.

Numerical contract (details in ``docs/lp_backends.md``): the engine
runs HiGHS at its default tolerances (1e-7 primal/dual feasibility),
every solve is an isolated cold solve, and the parity suite pins the
engine bit-identical to the ``linprog`` reference on the repository's
LP families.  Normalized statuses map onto ``linprog`` statuses as

    normalized      linprog.status
    ------------    ----------------------------
    optimal         0
    infeasible      2
    unbounded       3
    error           1, 4 (limits/numerical)

and surface as ``InfeasibleError`` / ``UnboundedError`` / ``SolverError``
at the modeling layer.
"""
