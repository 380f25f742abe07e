"""Parity suite: the softmax optimizer's L-BFGS-B driver against ``minimize``.

:func:`repro.core.softmax_opt._lbfgsb` runs ``scipy.optimize.minimize``'s
L-BFGS-B loop over the same ``setulb`` routine without its per-call
wrappers. ``minimize(method="L-BFGS-B")`` is kept only as the reference
called by name from here: on the optimizer's real objectives the two
must reach the same point bit for bit with the same number of objective
calls, and a whole robust solve must not move when every stage runs on
the reference instead.
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


def reference(fun, x0: np.ndarray, maxiter: int, args: tuple = ()):
    """The same minimization through ``scipy.optimize.minimize``."""
    return minimize(
        fun,
        x0,
        args=args,
        jac=True,
        method="L-BFGS-B",
        bounds=[(-_THETA_BOUND, _THETA_BOUND)] * x0.size,
        options={"maxiter": maxiter},
    )


class Counted:
    """An objective that counts its calls."""

    def __init__(self, fun):
        self.fun = fun
        self.calls = 0

    def __call__(self, x, *args):
        self.calls += 1
        return self.fun(x, *args)


def assert_parity(fun, x0: np.ndarray, maxiter: int, args: tuple = ()):
    """The driver and ``minimize`` end on the same point after as many calls."""
    driver_fun, reference_fun = Counted(fun), Counted(fun)
    x = _lbfgsb(driver_fun, x0, maxiter, args=args)
    expected = reference(reference_fun, x0, maxiter, args=args)
    assert np.array_equal(x, expected.x)
    assert driver_fun.calls == reference_fun.calls == expected.nfev
    return expected


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


@pytest.mark.parametrize("temperature", [8.0, 32.0])
@pytest.mark.parametrize("start", ["uniform", "ecmp"])
def test_smoothed_stage_matches_minimize(problem, abilene, temperature, start):
    if start == "uniform":
        x0 = np.zeros(problem.size)
    else:
        x0 = problem.theta_from_ratios(abilene[3].ratios)
    assert_parity(problem.smoothed, x0, 60, args=(temperature, 5e-3))


def test_polish_objective_with_active_penalty_matches_minimize(abilene, monkeypatch):
    network, dags, matrices, projection = abilene
    calls = []

    def recording(fun, x0, maxiter, args=()):
        calls.append((fun, x0.copy(), maxiter))
        return _lbfgsb(fun, x0, maxiter, args)

    monkeypatch.setattr(softmax_opt, "_lbfgsb", recording)
    start = _Problem(network, dags, matrices)
    theta0 = start.theta_from_ratios(projection.ratios)
    # Any bound below the start's true worst case leaves the smoothed
    # worst case (an upper bound on it) in excess: the penalty is on.
    bound = 0.5 * start.true_objective(theta0)
    config = SolverConfig(max_inner_iterations=20)
    polish_balanced(network, dags, matrices, matrices[:1], projection.ratios, bound, config)
    (objective, x0, maxiter), *_ = calls
    assert maxiter == 2 * config.max_inner_iterations
    assert_parity(objective, x0, maxiter)


def test_stop_at_the_iteration_limit_matches_minimize(problem):
    expected = assert_parity(problem.smoothed, np.zeros(problem.size), 3, args=(32.0, 5e-3))
    assert expected.nit == 3 and expected.status == 1


def test_convergence_before_the_limit_matches_minimize(problem):
    maxiter = 2000
    expected = assert_parity(problem.smoothed, np.zeros(problem.size), maxiter, args=(8.0, 0.0))
    assert expected.nit < maxiter and expected.status == 0


def test_start_outside_the_box_is_clipped_like_minimize(problem):
    x0 = np.linspace(-3 * _THETA_BOUND, 3 * _THETA_BOUND, problem.size)
    assert np.abs(x0).max() > _THETA_BOUND
    assert_parity(problem.smoothed, x0, 20, args=(8.0, 5e-3))


@pytest.mark.parametrize("target", [1.5, 30.0])
def test_single_variable_matches_minimize(target):
    def fun(x):
        return float((x[0] - target) ** 2 + np.cos(x[0])), 2 * (x - target) - np.sin(x)

    assert_parity(fun, np.array([0.25]), 50)


def test_driver_does_not_write_to_the_start(problem):
    x0 = np.full(problem.size, 2 * _THETA_BOUND)
    _lbfgsb(problem.smoothed, x0, 5, args=(8.0, 5e-3))
    assert np.all(x0 == 2 * _THETA_BOUND)


def test_robust_pipeline_is_identical_on_minimize(monkeypatch):
    """The whole cutting-plane run gives the same result when every
    softmax stage and the polish run on ``minimize`` instead."""
    driver = _robust_abilene()
    stages: list[int] = []

    def via_minimize(fun, x0, maxiter, args=()):
        stages.append(1)
        return reference(fun, x0, maxiter, args).x

    monkeypatch.setattr(softmax_opt, "_lbfgsb", via_minimize)
    expected = _robust_abilene()
    assert len(stages) > 5  # every start of every round, and the polish
    assert expected.oracle.ratio == driver.oracle.ratio
    assert expected.history == driver.history
    assert (expected.rounds, expected.stop) == (driver.rounds, driver.stop)
    assert expected.routing.ratios == driver.routing.ratios
