"""Parity suite: the softmax optimizer's lockstep L-BFGS-B driver against ``minimize``.

:func:`repro.core.softmax_opt._lbfgsb` runs ``scipy.optimize.minimize``'s
L-BFGS-B loop over the same ``setulb`` routine for several starts at
once, each through a sequence of stages, and evaluates every start that
needs a point in one batched objective call.
``minimize(method="L-BFGS-B")``, run start by start and stage by stage,
is kept only as the reference called by name from here: on the
optimizer's real objectives each start must reach the same points bit
for bit with the same objective calls, in the same order, and a whole
robust solve must not move when every stage runs on the reference
instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import minimize
from test_lp_backends import _robust_abilene

from repro.config import SolverConfig
from repro.core import softmax_opt
from repro.core.dag_builder import build_dags
from repro.core.evaluate import project_ecmp_into_dags
from repro.core.softmax_opt import _THETA_BOUND, _lbfgsb, _Problem, polish_balanced
from repro.demands.bimodal import bimodal_matrix
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import inverse_capacity_weights
from repro.topologies.zoo import load_topology


def reference(fun, x0: np.ndarray, maxiter: int):
    """One minimization of ``fun(x) -> (value, gradient)`` through ``minimize``."""
    return minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(-_THETA_BOUND, _THETA_BOUND)] * x0.size,
        options={"maxiter": maxiter},
    )


def one_point(fun, stage, seen: list | None = None):
    """The driver's batched objective at one stage, as ``minimize``'s ``fun(x)``."""

    def single(x):
        if seen is not None:
            seen.append(x.tobytes())
        values, gradients = fun(x[np.newaxis], [stage])
        return values[0], gradients[0]

    return single


class Recorded:
    """A batched objective that records every point it is asked for."""

    def __init__(self, fun):
        self.fun = fun
        self.points: list[bytes] = []
        self.batches: list[int] = []

    def __call__(self, points, stages):
        self.points.extend(point.tobytes() for point in points)
        self.batches.append(len(points))
        return self.fun(points, stages)


def run_reference(fun, starts, maxiter: int, stages=(None,), seen=None):
    """``minimize`` per start, stage by stage: the final point of each stage."""
    paths = []
    for x0 in starts:
        path, x = [], x0
        for stage in stages:
            x = reference(one_point(fun, stage, seen), x, maxiter).x
            path.append(x)
        paths.append(path)
    return paths


def assert_parity(fun, starts, maxiter: int, stages=(None,)):
    """Every start ends each stage on ``minimize``'s point, after the same
    objective calls in the same order.  Returns ``minimize``'s results
    per start and stage."""
    driver = Recorded(fun)
    paths = _lbfgsb(driver, starts, maxiter, stages)
    expected, owner = [], {}
    results = []
    for start, (x0, path) in enumerate(zip(starts, paths)):
        seen: list[bytes] = []
        x, per_stage = x0, []
        for stage, end in zip(stages, path, strict=True):
            result = reference(one_point(fun, stage, seen), x, maxiter)
            assert np.array_equal(end, result.x)
            per_stage.append(result)
            x = result.x
        assert len(seen) == sum(result.nfev for result in per_stage)
        for point in seen:
            assert owner.setdefault(point, start) == start  # attribution is unambiguous
        expected.append(seen)
        results.append(per_stage)
    assert len(paths) == len(starts)
    assert len(driver.points) == sum(len(seen) for seen in expected)
    for start, seen in enumerate(expected):
        assert [point for point in driver.points if owner[point] == start] == seen
    return results, driver


@pytest.fixture(scope="module")
def abilene():
    network = load_topology("abilene")
    weights = inverse_capacity_weights(network)
    dags = build_dags(network, weights, augment=True)
    matrices = [bimodal_matrix(network, seed) for seed in (20161101, 7, 11)]
    projection = project_ecmp_into_dags(ecmp_routing(network, weights), dags)
    return network, dags, matrices, projection


@pytest.fixture(scope="module")
def problem(abilene):
    network, dags, matrices, _ = abilene
    return _Problem(network, dags, matrices)


def smoothed(problem, regularization: float):
    def fun(thetas, temperatures):
        return problem.smoothed(thetas, temperatures, regularization)

    return fun


@pytest.mark.parametrize("temperature", [8.0, 32.0])
@pytest.mark.parametrize("start", ["uniform", "ecmp"])
def test_smoothed_stage_matches_minimize(problem, abilene, temperature, start):
    if start == "uniform":
        x0 = np.zeros(problem.size)
    else:
        x0 = problem.theta_from_ratios(abilene[3].ratios)
    assert_parity(smoothed(problem, 5e-3), [x0], 60, (temperature,))


def test_polish_objective_with_active_penalty_matches_minimize(abilene, monkeypatch):
    network, dags, matrices, projection = abilene
    calls = []

    def recording(fun, starts, maxiter, stages=(None,)):
        calls.append((fun, [x0.copy() for x0 in starts], maxiter, stages))
        return _lbfgsb(fun, starts, maxiter, stages)

    monkeypatch.setattr(softmax_opt, "_lbfgsb", recording)
    start = _Problem(network, dags, matrices)
    theta0 = start.theta_from_ratios(projection.ratios)
    # Any bound below the start's true worst case leaves the smoothed
    # worst case (an upper bound on it) in excess: the penalty is on.
    bound = 0.5 * start.true_objective(theta0[np.newaxis])[0]
    config = SolverConfig(max_inner_iterations=20)
    polish_balanced(network, dags, matrices, matrices[:1], projection.ratios, bound, config)
    [(objective, starts, maxiter, stages)] = calls
    assert maxiter == 2 * config.max_inner_iterations and len(starts) == 1
    assert_parity(objective, starts, maxiter, stages)


def test_stop_at_the_iteration_limit_matches_minimize(problem):
    [[expected]], _ = assert_parity(
        smoothed(problem, 5e-3), [np.zeros(problem.size)], 3, (32.0,)
    )
    assert expected.nit == 3 and expected.status == 1


def test_convergence_before_the_limit_matches_minimize(problem):
    maxiter = 2000
    [[expected]], _ = assert_parity(
        smoothed(problem, 0.0), [np.zeros(problem.size)], maxiter, (8.0,)
    )
    assert expected.nit < maxiter and expected.status == 0


def test_start_outside_the_box_is_clipped_like_minimize(problem):
    x0 = np.linspace(-3 * _THETA_BOUND, 3 * _THETA_BOUND, problem.size)
    assert np.abs(x0).max() > _THETA_BOUND
    assert_parity(smoothed(problem, 5e-3), [x0], 20, (8.0,))


def test_lockstep_batch_matches_minimize_start_by_start(problem, abilene):
    """Starts that converge early, stop at ``maxiter`` or begin outside the
    box share batches; each still follows ``minimize`` on its own."""
    fun = smoothed(problem, 0.0)
    maxiter = 25
    uniform = np.zeros(problem.size)
    # A start next to the optimum converges well before the limit.
    [[optimum]] = run_reference(fun, [uniform], 2000, (8.0,))
    outside = np.linspace(-3 * _THETA_BOUND, 3 * _THETA_BOUND, problem.size)
    ecmp = problem.theta_from_ratios(abilene[3].ratios)
    starts = [uniform, optimum, outside, ecmp]
    results, driver = assert_parity(fun, starts, maxiter, (8.0,))
    [uniform_run], [optimum_run], _, _ = results
    assert optimum_run.status == 0 and optimum_run.nit < maxiter
    assert uniform_run.status == 1 and uniform_run.nit == maxiter
    # Batches really were shared, and shrank as starts finished.
    assert max(driver.batches) == len(starts) and min(driver.batches) < len(starts)


def test_stages_run_back_to_back_per_start(problem, abilene):
    """Each start runs its stages in turn, each from the previous end, while
    other starts are at other stages of the same batch."""
    fun = smoothed(problem, 5e-3)
    starts = [np.zeros(problem.size), problem.theta_from_ratios(abilene[3].ratios)]
    _, driver = assert_parity(fun, starts, 15, (8.0, 32.0, 64.0))
    assert max(driver.batches) == len(starts)


@pytest.mark.parametrize("target", [1.5, 30.0])
def test_single_variable_matches_minimize(target):
    def fun(points, _stages):
        x = points[:, 0]
        values = (x - target) ** 2 + np.cos(x)
        return values, (2 * (x - target) - np.sin(x))[:, np.newaxis]

    assert_parity(fun, [np.array([0.25])], 50)


def test_driver_does_not_write_to_the_start(problem):
    x0 = np.full(problem.size, 2 * _THETA_BOUND)
    _lbfgsb(smoothed(problem, 5e-3), [x0], 5, (8.0,))
    assert np.all(x0 == 2 * _THETA_BOUND)


def test_robust_pipeline_is_identical_on_minimize(monkeypatch):
    """The whole cutting-plane run gives the same result when every
    softmax stage of every start and the polish run on ``minimize``
    instead, one start and one stage at a time."""
    driver = _robust_abilene()
    stages: list[int] = []

    def via_minimize(fun, starts, maxiter, stages_=(None,)):
        paths = run_reference(fun, starts, maxiter, stages_)
        stages.extend(1 for path in paths for _end in path)
        return paths

    monkeypatch.setattr(softmax_opt, "_lbfgsb", via_minimize)
    expected = _robust_abilene()
    assert len(stages) > 5  # every stage of every start of every round, and the polish
    assert expected.oracle.ratio == driver.oracle.ratio
    assert expected.history == driver.history
    assert (expected.rounds, expected.stop) == (driver.rounds, driver.stop)
    assert expected.routing.ratios == driver.routing.ratios
