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
:mod:`repro.kernel.flowgrad`).  The starts run L-BFGS-B in lockstep
through :func:`_lbfgsb`: each start keeps its own ``setulb`` state and
runs its temperature stages back to back, and every start that needs an
evaluation rides one batched level sweep, since at these sizes a sweep
costs mostly per call, not per start.  The driver calls ``setulb`` the way
``scipy.optimize.minimize`` does, without ``minimize``'s per-call and
per-evaluation wrappers.  ``minimize(method="L-BFGS-B")``, run start by
start and stage by stage, stays only as the reference that
``tests/test_lbfgsb_driver.py`` calls by name; the two reach the same
iterates bit for bit.  The true (unsmoothed) objective of the best
iterate across all stages and starts is what the caller receives, so
smoothing never inflates the reported quality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize._lbfgsb import setulb

from repro.config import DEFAULT_CONFIG, REGULARIZATION, SolverConfig
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


def _run(x0: np.ndarray, maxiter: int):
    """One L-BFGS-B minimization over the theta box, as a generator.

    Yields each point it needs ``(value, gradient)`` at, takes that pair
    back through ``send`` and returns the final point.  It runs the loop
    of ``scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B",
    bounds=[(-_THETA_BOUND, _THETA_BOUND)] * n, options={"maxiter":
    maxiter})`` over the same ``setulb`` routine, with its defaults, its
    up-front evaluation at ``x0`` and its rule of re-evaluating only at a
    point that differs from the last one, so the iterates and the
    evaluation count are the same bit for bit; what it drops is the
    per-call bounds conversion, the wrapper layers around each evaluation
    and the inverse-Hessian operator built on return.
    """
    n = x0.size
    lower = np.full(n, -_THETA_BOUND)
    upper = np.full(n, _THETA_BOUND)
    x = np.clip(x0, lower, upper)
    last = x.copy()
    last_f, last_g = yield last
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
                last_f, last_g = yield last
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


def _lbfgsb(
    fun, starts: Sequence[np.ndarray], maxiter: int, stages: Sequence = (None,)
) -> list[list[np.ndarray]]:
    """Minimize from every start, through every stage, in lockstep.

    Each start runs one L-BFGS-B minimization (:func:`_run`) per entry of
    ``stages``, back to back, each stage from the previous one's final
    point.  Every start keeps its own ``setulb`` state, memo and caps;
    per step, the points of every start that needs an evaluation go to
    one call ``fun(points, point_stages) -> (values, gradients)`` with
    ``points`` of shape ``(S, n)``, one row per such start, and
    ``point_stages`` the stage each row is in.  Provided ``fun`` treats
    its rows independently, each start follows exactly the iterates of
    ``minimize`` run on it alone, stage by stage
    (``tests/test_lbfgsb_driver.py`` pins this).

    Returns, per start, the final point of each stage.
    """
    paths: list[list[np.ndarray]] = [[] for _ in starts]

    def request(start: int, run, reply=None):
        """Advance one start to its next evaluation, across stage ends."""
        while True:
            try:
                return start, run, run.send(reply)
            except StopIteration as stop:
                end = stop.value
            paths[start].append(end)
            if len(paths[start]) == len(stages):
                return None
            run, reply = _run(end, maxiter), None

    replies = [(start, _run(x0, maxiter), None) for start, x0 in enumerate(starts)]
    while True:
        pending = [entry for entry in itertools.starmap(request, replies) if entry is not None]
        if not pending:
            return paths
        values, gradients = fun(
            np.array([point for _, _, point in pending]),
            [stages[len(paths[start])] for start, _, _ in pending],
        )
        replies = [
            (start, run, (value, gradient))
            for (start, run, _), value, gradient in zip(pending, values, gradients)
        ]


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
    """Softmax variable layout + objective/gradient plumbing on a :class:`FlowProgram`.

    The objectives take a block of thetas ``(S, V)``, one row per start,
    and propagate every row in one batched sweep; a row's value and
    gradient are bit for bit those of a block holding it alone.
    ``balance_matrices`` ride along as extra demand columns after
    ``matrices``, for the polish's mean-utilization term.
    """

    def __init__(
        self,
        network: Network,
        dags: Mapping[Node, Dag],
        matrices: Sequence[DemandMatrix],
        balance_matrices: Sequence[DemandMatrix] = (),
    ):
        if not matrices:
            raise SolverError("softmax optimizer needs at least one demand matrix")
        self.program = FlowProgram(network, dags, [*matrices, *balance_matrices])
        self.batch = slice(0, len(matrices))
        self.balance = slice(len(matrices), len(matrices) + len(balance_matrices))
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

    # -- objectives ----------------------------------------------------------

    def _propagate(self, thetas: np.ndarray):
        """Shares ``(S, V)``, ratios ``(I, S)``, arrivals and loads ``(U, S, K)``."""
        shares = self.program.softmax(thetas)
        phi = self.program.instance_ratios(shares)
        arrivals, flows = self.program.forward(phi)
        return shares, phi, arrivals, self.program.edge_loads(flows)

    def true_objective(self, thetas: np.ndarray) -> np.ndarray:
        """True worst utilization over the batch, per row of ``thetas``."""
        *_, loads = self._propagate(thetas)
        return np.array(
            [self.program.max_utilization(loads[:, row, self.batch]) for row in range(len(thetas))]
        )

    def _loaded(self, loads: np.ndarray, columns: slice):
        """Every row's loaded finite edges, stacked row after row.

        An edge is loaded in a row when it carries load in some matrix of
        ``columns``; only loaded edges enter the objectives (an idle edge
        contributes no term).  Returns, per stacked entry, its used edge,
        its row and its capacity ``(N, 1)``; the entries' ``(N, K)`` loads
        over ``columns``; and each row's span of entries.  A span is a
        contiguous block, so a row's sums add exactly the array they add
        when the row is alone.
        """
        block = loads[..., columns]
        finite = self.program.finite
        rows, position = np.nonzero(block[finite].any(axis=2).T)
        edges = finite[position]
        bounds = np.searchsorted(rows, np.arange(loads.shape[1] + 1)).tolist()
        spans = [slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]
        return edges, rows, self.program.capacity[edges, np.newaxis], block[edges, rows], spans

    def _soft_max(
        self,
        loads: np.ndarray,
        psi: np.ndarray,
        columns: slice,
        temperatures: Sequence[float],
        regularization: float,
    ) -> np.ndarray:
        """Per row, the soft maximum (plus mean-utilization tie-breaker) of
        its utilizations over ``columns`` at the row's temperature; writes
        their derivatives by the loads into ``psi``."""
        edges, rows, capacity, entry_loads, spans = self._loaded(loads, columns)
        utilizations = entry_loads / capacity
        weights = np.empty_like(utilizations)
        exp_sums = np.zeros(len(spans))
        values = np.zeros(len(spans))
        for row, (span, temperature) in enumerate(zip(spans, temperatures)):
            own = utilizations[span]
            if own.size == 0:
                continue
            peak = float(own.max())
            own_weights = np.exp(temperature * (own - peak), out=weights[span])
            exp_sums[row] = float(own_weights.sum())
            values[row] = peak + math.log(exp_sums[row]) / temperature
            if regularization > 0.0:
                values[row] += regularization * (float(own.sum()) / own.size)
        # psi[e][k] = dS/dload = (w / exp_sum) / c_e, plus the mean-
        # utilization regularizer's uniform share (see REGULARIZATION).
        gradient = weights / (exp_sums[rows, np.newaxis] * capacity)
        if regularization > 0.0:
            entries = np.bincount(rows, minlength=len(spans)) * entry_loads.shape[1]
            gradient += regularization / (entries[rows, np.newaxis] * capacity)
        psi[edges, rows, columns] = gradient
        return values

    def _mean(self, loads: np.ndarray, psi: np.ndarray, columns: slice) -> np.ndarray:
        """Per row, the average utilization over (finite edges x ``columns``);
        writes its derivatives by the loads into ``psi``."""
        edges, rows, capacity, entry_loads, spans = self._loaded(loads, columns)
        entries = np.bincount(rows, minlength=len(spans)) * entry_loads.shape[1]
        values = np.zeros(len(spans))
        for row, span in enumerate(spans):
            if entries[row]:
                totals = entry_loads[span].sum(axis=1) / capacity[span, 0]
                values[row] = float(totals.sum()) / int(entries[row])
        psi[edges, rows, columns] = 1.0 / (entries[rows, np.newaxis] * capacity)
        return values

    def smoothed(
        self, thetas: np.ndarray, temperatures: Sequence[float], regularization: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Soft maximum of each row at its own temperature, and its gradient.

        Returns values ``(S,)`` and gradients ``(S, V)``.
        """
        self.evaluations += len(thetas)
        shares, phi, arrivals, loads = self._propagate(thetas)
        psi = np.zeros_like(loads)
        values = self._soft_max(loads, psi, self.batch, temperatures, regularization)
        (grad_phi,) = self.program.backward(phi, arrivals, psi, (self.batch,))
        return values, self.program.softmax_gradient(shares, grad_phi)

    def penalized(self, theta: np.ndarray, temperature: float):
        """The polish's two terms at one ``theta``, from one shared sweep:
        ``(value, gradient)`` of the batch's soft maximum, then of the
        balance set's mean utilization."""
        self.evaluations += 1
        shares, phi, arrivals, loads = self._propagate(theta[np.newaxis])
        psi = np.zeros_like(loads)
        [soft] = self._soft_max(loads, psi, self.batch, [temperature], 0.0).tolist()
        [mean] = self._mean(loads, psi, self.balance).tolist()
        blocks = self.program.backward(phi, arrivals, psi, (self.batch, self.balance))
        # One softmax chain for both terms: a row per term.
        soft_grad, mean_grad = self.program.softmax_gradient(
            np.repeat(shares, 2, axis=0), np.concatenate(blocks, axis=1)
        )
        return (soft, soft_grad), (mean, mean_grad)


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
    adversarial set exceeding ``bound``.  Both sets share one
    :class:`FlowProgram`, so each evaluation is one forward and one
    reverse sweep.

    The caller should re-verify the polished point with the oracle and
    keep the better configuration.
    """
    problem = _Problem(network, dags, penalty_matrices, balance_matrices)
    theta0 = problem.theta_from_ratios(start_ratios)
    if problem.size == 0:
        # No splittable node anywhere (e.g. a path): nothing to polish.
        ratios = problem.ratios_from_theta(theta0)
        routing = Routing(dags, ratios, name=name).renormalized()
        return SplittingSolution(routing, float(problem.true_objective(theta0[np.newaxis])[0]), 0)
    penalty_weight = 1e3
    temperature = config.smoothing_temperatures[-1]

    def objective(thetas: np.ndarray, _stages) -> tuple[list[float], np.ndarray]:
        (soft_value, soft_grad), (mean_value, mean_grad) = problem.penalized(
            thetas[0], temperature
        )
        excess = soft_value - bound
        if excess > 0.0:
            value = mean_value + penalty_weight * excess * excess
            grad = mean_grad + (2.0 * penalty_weight * excess) * soft_grad
        else:
            value, grad = mean_value, mean_grad
        return [value], grad[np.newaxis]

    [[theta]] = _lbfgsb(objective, [theta0], 2 * config.max_inner_iterations)
    polished_value, start_value = problem.true_objective(np.array([theta, theta0])).tolist()
    if polished_value > max(bound, start_value) * (1.0 + config.ratio_tolerance):
        theta, polished_value = theta0, start_value  # polish made it worse
    ratios = problem.ratios_from_theta(theta)
    routing = Routing(dags, ratios, name=name).renormalized()
    return SplittingSolution(routing, polished_value, problem.evaluations)


def optimize_splitting_softmax(
    network: Network,
    dags: Mapping[Node, Dag],
    matrices: Sequence[DemandMatrix],
    config: SolverConfig = DEFAULT_CONFIG,
    initial_ratios: Sequence[Mapping[Node, Mapping[Edge, float]]] = (),
    name: str = "COYOTE",
) -> SplittingSolution:
    """Optimize in-DAG splitting against a finite demand batch.

    Every start runs the temperature stages back to back, and all starts
    run in lockstep (:func:`_lbfgsb`), so each step propagates every
    start that needs an evaluation in one batched sweep.

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
        return SplittingSolution(routing, float(problem.true_objective(theta[np.newaxis])[0]), 0)
    starts = [np.zeros(problem.size)]
    starts.extend(problem.theta_from_ratios(ratios) for ratios in initial_ratios)

    def smoothed(thetas: np.ndarray, temperatures: list[float]):
        return problem.smoothed(thetas, temperatures, REGULARIZATION)

    paths = _lbfgsb(smoothed, starts, config.max_inner_iterations, config.smoothing_temperatures)
    # Candidates in (start, stage) order: each start, then its stages' ends.
    candidates = [theta for start, path in zip(starts, paths) for theta in (start, *path)]
    best_theta: np.ndarray | None = None
    best_value = math.inf
    for theta, value in zip(candidates, problem.true_objective(np.array(candidates)).tolist()):
        if value < best_value:
            best_value, best_theta = value, theta

    if best_theta is None:  # pragma: no cover - every candidate's value is NaN
        best_theta = np.zeros(problem.size)
        best_value = float(problem.true_objective(best_theta[np.newaxis])[0])
    ratios = problem.ratios_from_theta(best_theta)
    routing = Routing(dags, ratios, name=name).renormalized()
    return SplittingSolution(
        routing=routing,
        objective=best_value,
        evaluations=problem.evaluations,
    )
