"""Differential suite: the HiGHS engine against the ``linprog`` reference.

Every LP in the library runs on
:class:`~repro.lp.backend.highs_backend.HighsInstance`;
:func:`~repro.lp.backend.scipy_backend.linprog_reference` is kept only
to be called by name from here.  On the repository's real LP families
(the worst-case oracle's slave LP and the min-congestion normalizer,
i.e. the fig9/fig11 workloads) the two must agree bit for bit, map
statuses identically, and drive the robust pipeline to the same result.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import SolverConfig
from repro.core.dag_builder import build_dags
from repro.core.evaluate import project_ecmp_into_dags
from repro.core.robust import RobustResult, optimize_robust_splitting
from repro.demands.bimodal import bimodal_matrix
from repro.demands.gravity import gravity_matrix
from repro.demands.uncertainty import margin_box
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import inverse_capacity_weights
from repro.exceptions import InfeasibleError, SolverError, UnboundedError
from repro.lp import backend as lp_backend
from repro.lp import model
from repro.lp.backend import base
from repro.lp.backend.highs_backend import HighsInstance
from repro.lp.backend.scipy_backend import linprog_reference
from repro.lp.dag_flow import optimal_dag_routing
from repro.lp.mcf import MinCongestionSolver, min_congestion
from repro.lp.model import CompiledLP, Model
from repro.lp.worst_case import WorstCaseOracle
from repro.runner.spec import SweepCell, cell_key
from repro.topologies.zoo import load_topology

#: Objective agreement the model layer's solve paths promise against
#: the reference (the raw engine is pinned bitwise, below).
PARITY_TOL = 1e-7


class ReferenceLP:
    """:func:`linprog_reference` behind :class:`HighsInstance`'s interface.

    Each solve is one cold ``linprog`` call on the program with the
    current equality right-hand sides, so the model layer can run on
    the reference unchanged (``monkeypatch.setattr(model,
    "HighsInstance", ReferenceLP)``).
    """

    def __init__(self, program: base.LinearProgram):
        self._program = program
        self._b_eq = program.b_eq

    def solve(self, objective, b_eq=None) -> base.BackendSolution:
        if b_eq is not None:
            self._b_eq = base.equality_rhs(self._program, b_eq)
        program = self._program
        if self._b_eq is not program.b_eq:
            program = replace(program, b_eq=self._b_eq)
        return linprog_reference(program, base.dense_objective(program.num_vars, objective))


#: The engine and its reference, by the name each test is parametrized on.
ENGINES = {"highs": HighsInstance, "scipy": ReferenceLP}


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


def test_objective_parity_with_scipy(oracle_programs):
    """One-shot model-layer solves match the reference."""
    for topology, program, objectives in oracle_programs:
        for vec in objectives:
            expected = linprog_reference(program, vec)
            assert expected.status == base.OPTIMAL
            actual = CompiledLP(program).solve(vec)
            assert actual.objective == pytest.approx(
                expected.objective, abs=PARITY_TOL, rel=PARITY_TOL
            ), f"one-shot solve diverged from linprog on {topology}"


def test_persistent_instance_parity(oracle_programs):
    """Reusable solves (the production sweep path) match the reference."""
    for topology, program, objectives in oracle_programs:
        reusable = CompiledLP(program).reusable()
        for vec in objectives:
            expected = linprog_reference(program, vec)
            actual = reusable.solve(vec)
            assert actual.objective == pytest.approx(
                expected.objective, abs=PARITY_TOL, rel=PARITY_TOL
            ), f"reusable solve diverged from linprog on {topology}"


def test_default_highs_instance_is_bit_identical_to_scipy(oracle_programs):
    """Canary: the direct driver reproduces linprog exactly — objective,
    solution vector, and duals.  Expected, since it runs the identical
    engine with the identical effective options and resets fully per
    solve — but pinned empirically; a failure here means the direct
    driver's option set or reset discipline drifted from scipy's."""
    for _topology, program, objectives in oracle_programs:
        instance = HighsInstance(program)
        for vec in objectives:
            expected = linprog_reference(program, vec)
            actual = instance.solve(vec)
            assert actual.objective == expected.objective  # bitwise
            np.testing.assert_array_equal(actual.x, expected.x)
            np.testing.assert_array_equal(actual.ineq_duals, expected.ineq_duals)
            np.testing.assert_array_equal(actual.eq_duals, expected.eq_duals)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_status_mapping_identical(name):
    engine = ENGINES[name]

    infeasible = Model()
    x = infeasible.add_var("x", lower=0.0)
    infeasible.add_le(x, -1.0)
    program = infeasible.compile().program
    assert engine(program).solve(np.zeros(1)).status == base.INFEASIBLE

    unbounded = Model()
    unbounded.add_var("y")
    program = unbounded.compile().program
    assert engine(program).solve(np.array([-1.0])).status == base.UNBOUNDED

    optimal = Model()
    optimal.add_var("z", lower=2.0)
    program = optimal.compile().program
    result = engine(program).solve(np.array([1.0]))
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
        assert reused.alpha == fresh.alpha  # isolated solves: bitwise
        assert reused.flows == fresh.flows


#: The golden tables' solver config (``tests/test_golden_tables.py``).
GOLDEN_SOLVER = SolverConfig(
    max_adversarial_rounds=2,
    max_inner_iterations=8,
    smoothing_temperatures=(8.0,),
)


def _robust_abilene() -> RobustResult:
    """COYOTE-pk on Abilene at margin 2, set up as the margin cells do."""
    network = load_topology("abilene")
    weights = inverse_capacity_weights(network)
    dags = build_dags(network, weights, augment=True)
    demand = bimodal_matrix(network, 20161101)
    projection = project_ecmp_into_dags(ecmp_routing(network, weights), dags)
    base_routing = optimal_dag_routing(network, dags, demand)
    return optimize_robust_splitting(
        network,
        dags,
        margin_box(demand, 2.0),
        config=GOLDEN_SOLVER,
        initial_matrices=[demand],
        extra_starts=[projection.ratios, base_routing.ratios],
        fallbacks=[projection],
        name="COYOTE-pk",
    )


def test_robust_pipeline_is_identical_on_the_reference(monkeypatch):
    """The whole cutting-plane run gives the same result when every LP
    solve goes to ``linprog`` instead: no engine switch is needed to
    keep results independent of the engine."""
    engine = _robust_abilene()
    solves: list[int] = []

    class CountedReference(ReferenceLP):
        def solve(self, objective, b_eq=None):
            solves.append(1)
            return super().solve(objective, b_eq)

    monkeypatch.setattr(model, "HighsInstance", CountedReference)
    reference = _robust_abilene()
    assert len(solves) > 50  # every oracle, normalizer and Base solve
    assert reference.oracle.ratio == engine.oracle.ratio
    assert reference.oracle.per_edge == engine.oracle.per_edge
    assert reference.history == engine.history
    assert (reference.rounds, reference.stop) == (engine.rounds, engine.stop)
    assert reference.routing.ratios == engine.routing.ratios


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
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_sparse_objective_column_out_of_range_raises(name, column, monkeypatch):
    """A sparse objective naming a missing column is an error on every
    path, never a silent wrap-around (``-1`` is the last column to numpy)."""
    monkeypatch.setattr(model, "HighsInstance", ENGINES[name])
    m = Model()
    x = m.add_var("x")
    y = m.add_var("y")
    m.add_le(x + y, 4.0)
    compiled = m.compile()
    instance = ENGINES[name](compiled.program)
    with pytest.raises(SolverError, match="column"):
        instance.solve({column: -1.0})
    with pytest.raises(SolverError, match="column"):
        compiled.reusable().solve({column: 1.0}, maximize=True)
    with pytest.raises(SolverError, match="column"):
        compiled.solve({column: 1.0})


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_b_eq_of_the_wrong_length_raises(name):
    """Both engines reject an equality RHS that does not match the rows."""
    m = Model()
    x = [m.add_var(f"x{i}") for i in range(3)]
    for var in x:
        m.add_eq(var, 1.0)
    program = m.compile().program
    instance = ENGINES[name](program)
    objective = np.ones(3)
    with pytest.raises(ValueError):
        instance.solve(objective, b_eq=np.array([7.0]))
    with pytest.raises(ValueError):
        instance.solve(objective, b_eq=np.ones(4))
    # The rejected calls leave the instance's right-hand sides alone.
    result = instance.solve(objective)
    assert result.status == base.OPTIMAL
    np.testing.assert_array_equal(result.x, np.ones(3))


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

    def test_lp_threads_not_in_fingerprint(self):
        cell = self._cell()
        lp_backend.set_lp_threads(1)
        try:
            serial_key = cell_key(cell)
            lp_backend.set_lp_threads(8)
            assert cell_key(cell) == serial_key
        finally:
            lp_backend.set_lp_threads(None)
