"""Smoothed-minimax splitting optimizer (the scalable finite-set solver).

Given per-destination DAGs and a *finite* batch of demand matrices
(normalized so ``MxLU`` equals the performance ratio), this optimizer
searches splitting ratios minimizing the worst link utilization:

    min_phi  max_{e, k}  load_e(phi, D_k) / c_e .

Two ideas make the problem unconstrained and smooth:

* **Softmax parameterization.**  Ratios at each splittable node are
  ``phi(u, v) = exp(theta_uv) / sum_w exp(theta_uw)``, so the simplex
  constraints hold by construction — the same variable substitution
  ``z = log x`` that geometric programming uses (Appendix C), with the
  normalization folded into the parameterization instead of a condensed
  constraint.
* **Log-sum-exp smoothing.**  ``max`` is replaced by a temperature-
  annealed soft maximum whose gap to the true maximum is at most
  ``log(N) / tau``.  We anneal ``tau`` upward, warm-starting each stage.

Gradients are exact (adjoint level sweeps over flat edge arrays in
:mod:`repro.kernel.flowgrad`); the stages run L-BFGS-B through
:func:`_lbfgsb`, which drives scipy's ``setulb`` routine the way
``scipy.optimize.minimize`` does, without ``minimize``'s per-call and
per-evaluation wrappers.  ``minimize(method="L-BFGS-B")`` stays only as
the reference that ``tests/test_lbfgsb_driver.py`` calls by name; the
two reach the same iterates bit for bit.  The true
(unsmoothed) objective of the best iterate across all stages and starts
is what the caller receives, so smoothing never inflates the reported
quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize._lbfgsb import setulb

from repro.config import DEFAULT_CONFIG, SolverConfig
from repro.demands.matrix import DemandMatrix
from repro.exceptions import SolverError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.kernel.flowgrad import FlowProgram
from repro.routing.splitting import Routing

#: Bounds on theta keep exp() well-behaved; the ratio floor this implies
#: (about e^-24 relative) is far below any meaningful split.
_THETA_BOUND = 12.0

#: ``scipy.optimize.minimize(method="L-BFGS-B")``'s defaults: history size,
#: ``ftol`` as ``factr`` (in units of machine epsilon), ``gtol``, line-search
#: steps and evaluation cap.
_MEMORY = 10
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1e-5
_MAX_LINE_SEARCH = 20
_MAX_EVALUATIONS = 15000


def _lbfgsb(fun, x0: np.ndarray, maxiter: int, args: tuple = ()) -> np.ndarray:
    """Minimize ``fun(x, *args) -> (value, gradient)`` over the theta box.

    Runs the loop of ``scipy.optimize.minimize(fun, x0, args, jac=True,
    method="L-BFGS-B", bounds=[(-_THETA_BOUND, _THETA_BOUND)] * n,
    options={"maxiter": maxiter})`` over the same ``setulb`` routine, with
    its defaults, its up-front evaluation at ``x0`` and its rule of
    re-evaluating only at a point that differs from the last one, so the
    iterates and the evaluation count are the same bit for bit; what it
    drops is the per-call bounds conversion, the wrapper layers around
    each evaluation and the inverse-Hessian operator built on return.
    ``tests/test_lbfgsb_driver.py`` pins it against ``minimize``.
    Returns the final point.
    """
    n = x0.size
    lower = np.full(n, -_THETA_BOUND)
    upper = np.full(n, _THETA_BOUND)
    x = np.clip(x0, lower, upper)
    last = x.copy()
    last_f, last_g = fun(last.copy(), *args)
    evaluations = 1
    nbd = np.full(n, 2, dtype=np.int32)  # every variable bounded on both sides
    f = np.array(0.0)
    g = np.zeros(n)
    task = np.zeros(2, dtype=np.int32)
    # setulb's workspace between calls: wa, iwa, task, lsave, isave, dsave.
    work = (
        np.zeros(2 * _MEMORY * n + 5 * n + 11 * _MEMORY * _MEMORY + 8 * _MEMORY),
        np.zeros(3 * n, dtype=np.int32),
        task,
        np.zeros(4, dtype=np.int32),
        np.zeros(44, dtype=np.int32),
        np.zeros(29),
    )
    ln_task = np.zeros(2, dtype=np.int32)
    iterations = 0
    while True:
        g = g.astype(np.float64)
        setulb(
            _MEMORY, x, lower, upper, nbd, f, g, _FACTR, _PGTOL, *work, _MAX_LINE_SEARCH, ln_task
        )
        if task[0] == 3:  # FG: wants the value and gradient at x
            if not np.array_equal(x, last):
                last = x.copy()
                last_f, last_g = fun(x.copy(), *args)
                evaluations += 1
            f, g = last_f, last_g
        elif task[0] == 1:  # NEW_X: an iteration finished
            iterations += 1
            if iterations >= maxiter:
                task[:] = (5, 504)  # STOP: iteration limit
            elif evaluations > _MAX_EVALUATIONS:
                task[:] = (5, 502)  # STOP: evaluation limit
        else:
            return x


@dataclass
class SplittingSolution:
    """Result of a finite-set splitting optimization.

    Attributes:
        routing: the optimized configuration (ratios renormalized).
        objective: true worst utilization over the matrix batch.
        evaluations: number of objective/gradient evaluations performed.
    """

    routing: Routing
    objective: float
    evaluations: int


class _Problem:
    """Softmax variable layout + objective/gradient plumbing on a :class:`FlowProgram`."""

    def __init__(
        self,
        network: Network,
        dags: Mapping[Node, Dag],
        matrices: Sequence[DemandMatrix],
    ):
        if not matrices:
            raise SolverError("softmax optimizer needs at least one demand matrix")
        self.program = FlowProgram(network, dags, matrices)
        self.size = self.program.size
        self.evaluations = 0

    # -- parameter conversion ----------------------------------------------

    def theta_from_ratios(
        self, ratios: Mapping[Node, Mapping[Edge, float]], floor: float = 1e-6
    ) -> np.ndarray:
        theta = np.zeros(self.size)
        offset = 0
        for t, _node, edges in self.program.groups:
            per_dest = ratios.get(t, {})
            block = np.array(
                [math.log(max(per_dest.get(edge, 0.0), floor)) for edge in edges]
            )
            # Softmax is shift-invariant per group; recentre on the group
            # max so the later clipping cannot flatten the distribution.
            block -= block.max()
            theta[offset : offset + len(edges)] = block
            offset += len(edges)
        return np.clip(theta, -_THETA_BOUND, _THETA_BOUND)

    def ratios_from_theta(self, theta: np.ndarray) -> dict[Node, dict[Edge, float]]:
        # Nodes with a single out-edge always forward everything there.
        phi = self.program.instance_ratios(self.program.softmax(theta))
        return self.program.ratio_dicts(phi)

    # -- objective -----------------------------------------------------------

    def _propagate(self, theta: np.ndarray):
        """Shares, per-instance ratios, arrivals and per-edge loads at ``theta``."""
        shares = self.program.softmax(theta)
        phi = self.program.instance_ratios(shares)
        arrivals, flows = self.program.forward(phi)
        return shares, phi, arrivals, self.program.edge_loads(flows)

    def true_objective(self, theta: np.ndarray) -> float:
        *_, loads = self._propagate(theta)
        return self.program.max_utilization(loads)

    def mean_utilization(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Average utilization over (finite edges x batch) and its gradient."""
        self.evaluations += 1
        shares, phi, arrivals, loads = self._propagate(theta)
        loaded = self.program.loaded(loads)
        if loaded.size == 0:
            return 0.0, np.zeros(self.size)
        capacity = self.program.capacity[loaded]
        entries = loads[loaded].size
        value = float((loads[loaded].sum(axis=1) / capacity).sum()) / entries
        psi = np.zeros_like(loads)
        psi[loaded] = (1.0 / (entries * capacity))[:, np.newaxis]
        grad_phi = self.program.backward(phi, arrivals, psi)
        return value, self.program.softmax_gradient(shares, grad_phi)

    def smoothed(
        self, theta: np.ndarray, temperature: float, regularization: float = 0.0
    ) -> tuple[float, np.ndarray]:
        """Soft maximum (plus mean-utilization tie-breaker) and its gradient."""
        self.evaluations += 1
        shares, phi, arrivals, loads = self._propagate(theta)
        loaded = self.program.loaded(loads)
        if loaded.size == 0:
            return 0.0, np.zeros(self.size)
        capacity = self.program.capacity[loaded, np.newaxis]
        utilizations = loads[loaded] / capacity
        peak = float(utilizations.max())
        weights = np.exp(temperature * (utilizations - peak))
        exp_sum = float(weights.sum())
        value = peak + math.log(exp_sum) / temperature
        # psi[e][k] = dS/dload = (w / exp_sum) / c_e, plus the mean-
        # utilization regularizer's uniform share (see SolverConfig).
        entries = utilizations.size
        psi = np.zeros_like(loads)
        psi[loaded] = weights / (exp_sum * capacity)
        if regularization > 0.0:
            value += regularization * (float(utilizations.sum()) / entries)
            psi[loaded] += regularization / (entries * capacity)
        grad_phi = self.program.backward(phi, arrivals, psi)
        return value, self.program.softmax_gradient(shares, grad_phi)


def polish_balanced(
    network: Network,
    dags: Mapping[Node, Dag],
    penalty_matrices: Sequence[DemandMatrix],
    balance_matrices: Sequence[DemandMatrix],
    start_ratios: Mapping[Node, Mapping[Edge, float]],
    bound: float,
    config: SolverConfig = DEFAULT_CONFIG,
    name: str = "COYOTE",
) -> SplittingSolution:
    """Minimize balanced-set mean utilization s.t. worst case <= bound.

    Worst-case-optimal routings are massively degenerate; interior-point
    solvers (the paper's MOSEK) return the balanced center of the
    optimal face, while first-order methods land on extreme vertices
    that behave poorly on demand sets narrower than the one optimized
    for.  This polish recovers the balanced behaviour: starting from a
    worst-case-optimal point it descends the *mean* utilization of a
    canonical balance set (the uncertainty cone's representative matrix
    — the uniform matrix in the oblivious case, so no demand knowledge
    sneaks in) under a quadratic penalty on the worst case over the
    adversarial set exceeding ``bound``.

    The caller should re-verify the polished point with the oracle and
    keep the better configuration.
    """
    penalty_problem = _Problem(network, dags, penalty_matrices)
    balance_problem = _Problem(network, dags, balance_matrices)
    theta0 = penalty_problem.theta_from_ratios(start_ratios)
    if penalty_problem.size == 0:
        # No splittable node anywhere (e.g. a path): nothing to polish.
        ratios = penalty_problem.ratios_from_theta(theta0)
        routing = Routing(dags, ratios, name=name).renormalized()
        return SplittingSolution(routing, penalty_problem.true_objective(theta0), 0)
    penalty_weight = 1e3
    temperature = config.smoothing_temperatures[-1]

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        soft_value, soft_grad = penalty_problem.smoothed(theta, temperature, 0.0)
        mean_value, mean_grad = balance_problem.mean_utilization(theta)
        excess = soft_value - bound
        if excess > 0.0:
            value = mean_value + penalty_weight * excess * excess
            grad = mean_grad + (2.0 * penalty_weight * excess) * soft_grad
        else:
            value, grad = mean_value, mean_grad
        return value, grad

    theta = _lbfgsb(objective, theta0, 2 * config.max_inner_iterations)
    polished_value = penalty_problem.true_objective(theta)
    start_value = penalty_problem.true_objective(theta0)
    if polished_value > max(bound, start_value) * (1.0 + config.ratio_tolerance):
        theta, polished_value = theta0, start_value  # polish made it worse
    ratios = penalty_problem.ratios_from_theta(theta)
    routing = Routing(dags, ratios, name=name).renormalized()
    return SplittingSolution(routing, polished_value, penalty_problem.evaluations)


def optimize_splitting_softmax(
    network: Network,
    dags: Mapping[Node, Dag],
    matrices: Sequence[DemandMatrix],
    config: SolverConfig = DEFAULT_CONFIG,
    initial_ratios: Sequence[Mapping[Node, Mapping[Edge, float]]] = (),
    name: str = "COYOTE",
) -> SplittingSolution:
    """Optimize in-DAG splitting against a finite demand batch.

    Args:
        network: capacitated topology.
        dags: per-destination (augmented) DAGs.
        matrices: demand matrices, ideally normalized to unit optimum so
            the objective *is* the performance ratio.
        config: temperatures and iteration caps.
        initial_ratios: extra warm starts (e.g. ECMP-projected ratios,
            LP-induced ratios); a uniform start is always included.
        name: label for the resulting :class:`Routing`.
    """
    problem = _Problem(network, dags, matrices)
    if problem.size == 0:
        # Every node has a single out-edge: the routing is fully forced.
        theta = np.zeros(0)
        ratios = problem.ratios_from_theta(theta)
        routing = Routing(dags, ratios, name=name).renormalized()
        return SplittingSolution(routing, problem.true_objective(theta), 0)
    starts: list[np.ndarray] = [np.zeros(problem.size)]
    for ratios in initial_ratios:
        starts.append(problem.theta_from_ratios(ratios))

    best_theta: np.ndarray | None = None
    best_value = math.inf
    for start in starts:
        theta = start.copy()
        candidate_value = problem.true_objective(theta)
        if candidate_value < best_value:
            best_value, best_theta = candidate_value, theta.copy()
        for temperature in config.smoothing_temperatures:
            theta = _lbfgsb(
                problem.smoothed,
                theta,
                config.max_inner_iterations,
                args=(temperature, config.regularization),
            )
            candidate_value = problem.true_objective(theta)
            if candidate_value < best_value:
                best_value, best_theta = candidate_value, theta.copy()

    if best_theta is None:  # pragma: no cover - empty variable space
        best_theta = np.zeros(problem.size)
        best_value = problem.true_objective(best_theta)
    ratios = problem.ratios_from_theta(best_theta)
    routing = Routing(dags, ratios, name=name).renormalized()
    return SplittingSolution(
        routing=routing,
        objective=best_value,
        evaluations=problem.evaluations,
    )
