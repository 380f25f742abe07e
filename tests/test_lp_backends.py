"""Differential suite for the LP solver backends.

Every available backend must agree with the scipy reference on the
repository's real LP families (the worst-case oracle's slave LP and the
min-congestion normalizer, i.e. the fig9/fig11 workloads): objectives
within 1e-7 and identical normalized status mapping.  Backends that are
registered but not available here are skipped per-test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.demands.gravity import gravity_matrix
from repro.demands.uncertainty import margin_box
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import inverse_capacity_weights
from repro.exceptions import InfeasibleError, SolverError, UnboundedError
from repro.lp import backend as lp_backend
from repro.lp.backend import base
from repro.lp.backend.scipy_backend import ScipyBackend
from repro.lp.mcf import MinCongestionSolver, min_congestion
from repro.lp.model import Model
from repro.lp.worst_case import WorstCaseOracle
from repro.runner.spec import SweepCell, cell_key
from repro.topologies.zoo import load_topology

#: Cross-engine objective agreement promised by the backend contract.
PARITY_TOL = 1e-7


def _available_backends() -> list[str]:
    return list(lp_backend.available_backends())


@pytest.fixture(scope="module")
def oracle_programs():
    """(program, objectives) pairs from the real fig9/fig11 LP families."""
    cases = []
    for topology in ("abilene", "nsf"):
        network = load_topology(topology)
        demand = gravity_matrix(network)
        oracle = WorstCaseOracle(network, margin_box(demand, 2.0))
        weights = inverse_capacity_weights(network)
        routing = ecmp_routing(network, weights)
        coefficients = routing.load_coefficients(oracle.demand_pairs)
        program = oracle._compiled.program
        objectives = []
        for edge in network.finite_capacity_edges()[:6]:
            coeffs = coefficients.get(edge)
            if not coeffs:
                continue
            capacity = network.capacity(*edge)
            vec = np.zeros(program.num_vars)
            for pair, coefficient in coeffs.items():
                var = oracle._demand_vars.get(pair)
                if var is not None and coefficient > 0.0:
                    vec[var.index] = -coefficient / capacity  # maximize load
            if vec.any():
                objectives.append(vec)
        assert objectives, f"no loaded edges on {topology}"
        cases.append((topology, program, objectives))
    return cases


@pytest.mark.parametrize("name", sorted(set(lp_backend.backend_names()) - {"scipy"}))
def test_objective_parity_with_scipy(name, oracle_programs):
    if name not in _available_backends():
        pytest.skip(f"backend {name!r} not available here")
    backend = lp_backend.get_backend(name)
    reference = ScipyBackend()
    for topology, program, objectives in oracle_programs:
        for vec in objectives:
            expected = reference.solve(program, vec)
            actual = backend.solve(program, vec)
            assert actual.status == expected.status == base.OPTIMAL
            assert actual.objective == pytest.approx(
                expected.objective, abs=PARITY_TOL, rel=PARITY_TOL
            ), f"{name} diverged from scipy on {topology}"


@pytest.mark.parametrize("name", sorted(set(lp_backend.backend_names()) - {"scipy"}))
def test_persistent_instance_parity(name, oracle_programs):
    """Instance solves (the production sweep path) match one-shot scipy."""
    if name not in _available_backends():
        pytest.skip(f"backend {name!r} not available here")
    backend = lp_backend.get_backend(name)
    reference = ScipyBackend()
    for topology, program, objectives in oracle_programs:
        instance = backend.instance(program)
        for vec in objectives:
            expected = reference.solve(program, vec)
            actual = instance.solve(vec)
            assert actual.status == base.OPTIMAL
            assert actual.objective == pytest.approx(
                expected.objective, abs=PARITY_TOL, rel=PARITY_TOL
            ), f"{name} instance diverged on {topology}"


def test_default_highs_instance_is_bit_identical_to_scipy(oracle_programs):
    """Canary: the direct driver reproduces linprog exactly — objective,
    solution vector, and duals.  Expected, since it runs the identical
    engine with the identical effective options and resets fully per
    solve — but pinned empirically (which is also why backends keep
    distinct fingerprints); a failure here means the direct driver's
    option set or reset discipline drifted from scipy's."""
    backend = lp_backend.get_backend("highs")
    reference = ScipyBackend()
    for _topology, program, objectives in oracle_programs:
        instance = backend.instance(program)
        for vec in objectives:
            expected = reference.solve(program, vec)
            actual = instance.solve(vec)
            assert actual.objective == expected.objective  # bitwise
            np.testing.assert_array_equal(actual.x, expected.x)
            np.testing.assert_array_equal(actual.ineq_duals, expected.ineq_duals)
            np.testing.assert_array_equal(actual.eq_duals, expected.eq_duals)


@pytest.mark.parametrize("name", sorted(lp_backend.backend_names()))
def test_status_mapping_identical(name):
    if name not in _available_backends():
        pytest.skip(f"backend {name!r} not available here")
    backend = lp_backend.get_backend(name)

    infeasible = Model()
    x = infeasible.add_var("x", lower=0.0)
    infeasible.add_le(x, -1.0)
    program = infeasible.compile().program
    assert backend.solve(program, np.zeros(1)).status == base.INFEASIBLE

    unbounded = Model()
    unbounded.add_var("y")
    program = unbounded.compile().program
    assert backend.solve(program, np.array([-1.0])).status == base.UNBOUNDED

    optimal = Model()
    z = optimal.add_var("z", lower=2.0)
    program = optimal.compile().program
    result = backend.solve(program, np.array([1.0]))
    assert result.status == base.OPTIMAL
    assert result.objective == pytest.approx(2.0)


def test_min_congestion_solver_matches_one_shot():
    """RHS-swapped re-solves equal fresh builds, matrix for matrix."""
    network = load_topology("abilene")
    base_demand = gravity_matrix(network)
    solver = MinCongestionSolver(network)
    for scale in (1.0, 0.5, 2.0):
        demand = base_demand.scaled(scale)
        reused = solver.solve(demand)
        fresh = min_congestion(network, demand)
        assert reused.alpha == fresh.alpha  # same backend, isolated: bitwise
        assert reused.flows == fresh.flows


def test_model_layer_raises_library_errors():
    m = Model()
    x = m.add_var("x")
    m.add_le(x, -1.0)
    m.minimize(x)
    with pytest.raises(InfeasibleError):
        m.solve()

    m2 = Model()
    y = m2.add_var("y")
    m2.maximize(y)
    with pytest.raises(UnboundedError):
        m2.solve()


@pytest.mark.parametrize("column", [-1, 2, 5])
@pytest.mark.parametrize("name", sorted(lp_backend.available_backends()))
def test_sparse_objective_column_out_of_range_raises(name, column, monkeypatch):
    """A sparse objective naming a missing column is an error on every
    path, never a silent wrap-around (``-1`` is the last column to numpy)."""
    monkeypatch.setenv(lp_backend.BACKEND_ENV, name)
    m = Model()
    x = m.add_var("x")
    y = m.add_var("y")
    m.add_le(x + y, 4.0)
    compiled = m.compile()
    instance = lp_backend.get_backend(name).instance(compiled.program)
    with pytest.raises(SolverError, match="column"):
        instance.solve({column: -1.0})
    with pytest.raises(SolverError, match="column"):
        compiled.reusable().solve({column: 1.0}, maximize=True)
    with pytest.raises(SolverError, match="column"):
        compiled.solve({column: 1.0})


@pytest.mark.parametrize("name", sorted(lp_backend.available_backends()))
def test_b_eq_of_the_wrong_length_raises(name):
    """Both engines reject an equality RHS that does not match the rows."""
    m = Model()
    x = [m.add_var(f"x{i}") for i in range(3)]
    for var in x:
        m.add_eq(var, 1.0)
    program = m.compile().program
    instance = lp_backend.get_backend(name).instance(program)
    objective = np.ones(3)
    with pytest.raises(ValueError):
        instance.solve(objective, b_eq=np.array([7.0]))
    with pytest.raises(ValueError):
        instance.solve(objective, b_eq=np.ones(4))
    # The rejected calls leave the instance's right-hand sides alone.
    result = instance.solve(objective)
    assert result.status == base.OPTIMAL
    np.testing.assert_array_equal(result.x, np.ones(3))


class TestRegistry:
    def test_default_backend_is_highs(self, monkeypatch):
        monkeypatch.delenv(lp_backend.BACKEND_ENV, raising=False)
        assert lp_backend.active_backend_name() == "highs"
        assert lp_backend.get_backend().name == "highs"

    def test_environment_selects_backend(self, monkeypatch):
        monkeypatch.setenv(lp_backend.BACKEND_ENV, "scipy")
        assert lp_backend.get_backend().name == "scipy"

    def test_unknown_backend_raises(self):
        with pytest.raises(lp_backend.BackendUnavailable, match="unknown"):
            lp_backend.get_backend("nonexistent")

    def test_unavailable_backend_raises_when_missing(self):
        class MissingBackend(base.SolverBackend):
            name = "missing-test-backend"

            def available(self):
                return False

            def solve(self, program, objective):
                raise NotImplementedError

        try:
            lp_backend.register_backend(MissingBackend())
            assert "missing-test-backend" in lp_backend.backend_names()
            assert "missing-test-backend" not in lp_backend.available_backends()
            with pytest.raises(lp_backend.BackendUnavailable, match="not available"):
                lp_backend.get_backend("missing-test-backend")
        finally:
            lp_backend._BACKENDS.pop("missing-test-backend", None)

    def test_third_party_registration(self):
        class FakeBackend(base.SolverBackend):
            name = "fake-test-backend"

            def available(self):
                return True

            def solve(self, program, objective):
                raise NotImplementedError

        try:
            lp_backend.register_backend(FakeBackend())
            assert lp_backend.get_backend("fake-test-backend").name == "fake-test-backend"
        finally:
            lp_backend._BACKENDS.pop("fake-test-backend", None)


class TestFingerprints:
    def _cell(self):
        from repro.config import DEFAULT_CONFIG

        return SweepCell(
            experiment="fig6",
            topology="geant",
            demand_model="gravity",
            margin=0.5,
            seed=7,
            solver=DEFAULT_CONFIG,
        )

    def test_backend_in_fingerprint(self, monkeypatch):
        monkeypatch.delenv(lp_backend.BACKEND_ENV, raising=False)
        cell = self._cell()
        assert cell.fingerprint()["lp_backend"] == "highs"
        default_key = cell_key(cell)
        monkeypatch.setenv(lp_backend.BACKEND_ENV, "scipy")
        assert cell_key(cell) != default_key

    def test_lp_threads_not_in_fingerprint(self, monkeypatch):
        monkeypatch.delenv(lp_backend.BACKEND_ENV, raising=False)
        cell = self._cell()
        lp_backend.set_lp_threads(1)
        try:
            serial_key = cell_key(cell)
            lp_backend.set_lp_threads(8)
            assert cell_key(cell) == serial_key
        finally:
            lp_backend.set_lp_threads(None)
