"""Iterative geometric-programming splitting optimizer (Appendix C).

This is the paper-faithful solver.  Link loads are posynomials in the
splitting ratios ``phi`` (sums over DAG paths of products of ratios with
nonnegative demand coefficients), so under the substitution
``phi = exp(phi_tilde)`` every load constraint

    log load_e(exp(phi_tilde), D_k) <= alpha_tilde

is convex (log-sum-exp of affine functions).  The one non-convex piece
is the per-node normalization ``sum_v phi(u, v) = 1``; following the
paper's Complementary-GP treatment we *condense* it around the current
iterate ``phi0`` into its best monomial approximation, which in log
space is the affine constraint

    sum_v a_v * phi_tilde(u, v) >= sum_v a_v * log phi0(u, v),
    a_v = phi0(u, v)  (when sum_v phi0 = 1),

solve the resulting convex program (SLSQP with exact gradients from the
forward-mode load Jacobian of :mod:`repro.kernel.flowgrad`), renormalize,
re-condense, and repeat until the objective stops improving.

Complexity note: the SLSQP subproblem materializes a dense constraint
Jacobian of shape (|E| * K) x (#ratios), so this solver targets small
instances — the running example, the hardness gadgets, and topologies up
to a few dozen ratio variables.  The smoothed-minimax optimizer
(:mod:`repro.core.softmax_opt`) is the scalable default; the test suite
cross-checks the two on the running example against the closed-form
golden-ratio optimum (Appendix B).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from repro.config import DEFAULT_CONFIG, SolverConfig
from repro.core.softmax_opt import SplittingSolution
from repro.demands.matrix import DemandMatrix
from repro.exceptions import SolverError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.kernel.flowgrad import FlowProgram
from repro.routing.splitting import Routing, uniform_ratios

_LOG_FLOOR = -16.0  # ratios below e^-16 are effectively pruned edges
_LOAD_EPS = 1e-30


class _GpProblem:
    """Variable layout and constraint evaluation for the condensed program."""

    def __init__(
        self,
        network: Network,
        dags: Mapping[Node, Dag],
        matrices: Sequence[DemandMatrix],
    ):
        if not matrices:
            raise SolverError("GP optimizer needs at least one demand matrix")
        self.program = FlowProgram(network, dags, matrices)
        self.groups = self.program.groups
        self.var_index: dict[tuple[Node, Edge], int] = {}
        for t, _node, edges in self.groups:
            for edge in edges:
                self.var_index[(t, edge)] = len(self.var_index)
        self.size = len(self.var_index)

    # -- conversions ------------------------------------------------------

    def ratios_from_x(self, x: np.ndarray) -> dict[Node, dict[Edge, float]]:
        return self.program.ratio_dicts(self.program.instance_ratios(np.exp(x)))

    def x_from_ratios(self, ratios: Mapping[Node, Mapping[Edge, float]]) -> np.ndarray:
        x = np.zeros(self.size)
        for (t, edge), index in self.var_index.items():
            value = ratios.get(t, {}).get(edge, 0.0)
            x[index] = math.log(value) if value > math.exp(_LOG_FLOOR) else _LOG_FLOOR
        return x

    def normalized(self, ratios: Mapping[Node, Mapping[Edge, float]]):
        """Exact per-node renormalization of a ratio assignment."""
        fixed: dict[Node, dict[Edge, float]] = {t: dict(r) for t, r in ratios.items()}
        for t, _node, edges in self.groups:
            total = sum(fixed[t].get(e, 0.0) for e in edges)
            if total <= 0:
                share = 1.0 / len(edges)
                for e in edges:
                    fixed[t][e] = share
            else:
                for e in edges:
                    fixed[t][e] = fixed[t].get(e, 0.0) / total
        return fixed

    # -- evaluation -----------------------------------------------------------

    def load_constraints(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``alpha_tilde - log(load / c) >= 0`` and their Jacobian.

        One row per (finite-capacity edge carrying load, matrix), in
        terms of ``z = [x..., alpha_tilde]``.
        """
        program = self.program
        phi = program.instance_ratios(np.exp(z[:-1]))
        arrivals, flows = program.forward(phi)
        loads = program.edge_loads(flows)
        loaded = program.loaded(loads)
        if loaded.size == 0:
            return np.array([1.0]), np.zeros((1, self.size + 1))
        active = loads[loaded]
        capacity = program.capacity[loaded, np.newaxis]
        values = z[-1] - np.log(np.maximum(active, _LOAD_EPS) / capacity)
        # d(-log load) / dx = -(d load / dx) / load, zero for vanishing loads.
        jacobian = program.load_jacobian(phi, arrivals)[:, loaded, :]
        scale = np.divide(-1.0, active, out=np.zeros_like(active), where=active > _LOAD_EPS)
        rows = np.empty((active.size, self.size + 1))
        rows[:, :-1] = (jacobian * scale).reshape(self.size, active.size).T
        rows[:, -1] = 1.0
        return values.ravel(), rows

    def true_objective(self, ratios: Mapping[Node, Mapping[Edge, float]]) -> float:
        _, flows = self.program.forward(self.program.ratios_vector(ratios))
        return self.program.max_utilization(self.program.edge_loads(flows))


def optimize_splitting_gp(
    network: Network,
    dags: Mapping[Node, Dag],
    matrices: Sequence[DemandMatrix],
    config: SolverConfig = DEFAULT_CONFIG,
    initial_ratios: Mapping[Node, Mapping[Edge, float]] | None = None,
    condensation_rounds: int = 6,
    name: str = "COYOTE-GP",
) -> SplittingSolution:
    """Iterative monomial-condensation GP solve (small instances).

    Args:
        network: capacitated topology.
        dags: per-destination DAGs.
        matrices: finite demand batch (normalized to unit optimum for
            performance-ratio semantics).
        config: iteration caps for the inner SLSQP solves.
        initial_ratios: starting point (defaults to uniform splits).
        condensation_rounds: outer re-condensation iterations.
        name: label for the resulting routing.
    """
    problem = _GpProblem(network, dags, matrices)
    if initial_ratios is None:
        initial_ratios = {t: uniform_ratios(dag) for t, dag in dags.items()}
    current = problem.normalized(initial_ratios)
    best_ratios = current
    best_value = problem.true_objective(current)
    evaluations = 0

    if problem.size == 0:
        routing = Routing(dags, current, name=name).renormalized()
        return SplittingSolution(routing, best_value, 0)

    n = problem.size
    for _round in range(condensation_rounds):
        x0 = problem.x_from_ratios(current)
        # Condensed normalization rows: sum_v a_v x_v >= sum_v a_v log phi0_v
        # with a_v = phi0_v (rows are affine in log space).
        norm_rows: list[tuple[np.ndarray, float]] = []
        for t, _node, edges in problem.groups:
            coeffs = np.zeros(n)
            rhs = 0.0
            for e in edges:
                a = max(current[t].get(e, 0.0), math.exp(_LOG_FLOOR))
                index = problem.var_index[(t, e)]
                coeffs[index] = a
                rhs += a * math.log(a)
            norm_rows.append((coeffs, rhs))

        # Objective variables: z = [x..., alpha_tilde]; minimize alpha_tilde.
        def objective(z: np.ndarray):
            grad = np.zeros(n + 1)
            grad[-1] = 1.0
            return float(z[-1]), grad

        def load_constraints(z: np.ndarray):
            nonlocal evaluations
            evaluations += 1
            return problem.load_constraints(z)

        cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def cons_f(z: np.ndarray) -> np.ndarray:
            key = hash(z.tobytes())
            if key not in cache:
                cache.clear()
                cache[key] = load_constraints(z)
            return cache[key][0]

        def cons_j(z: np.ndarray) -> np.ndarray:
            key = hash(z.tobytes())
            if key not in cache:
                cache.clear()
                cache[key] = load_constraints(z)
            return cache[key][1]

        constraints = [{"type": "ineq", "fun": cons_f, "jac": cons_j}]
        for coeffs, rhs in norm_rows:
            constraints.append(
                {
                    "type": "ineq",
                    "fun": (lambda z, c=coeffs, r=rhs: float(np.dot(c, z[:n]) - r)),
                    "jac": (lambda z, c=coeffs: np.concatenate([c, [0.0]])),
                }
            )
        z0 = np.concatenate([x0, [math.log(max(best_value, 1e-6))]])
        bounds = [(_LOG_FLOOR, 0.0)] * n + [(None, None)]
        result = minimize(
            objective,
            z0,
            jac=True,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": config.max_inner_iterations, "ftol": 1e-9},
        )
        candidate = problem.normalized(problem.ratios_from_x(np.asarray(result.x[:n])))
        value = problem.true_objective(candidate)
        if value < best_value - 1e-12:
            best_value, best_ratios = value, candidate
            current = candidate
        else:
            break  # condensation converged

    routing = Routing(dags, best_ratios, name=name).renormalized()
    return SplittingSolution(routing, best_value, evaluations)
