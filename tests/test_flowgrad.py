"""Tests for the differentiable flow engine (:mod:`repro.kernel.flowgrad`).

The optimizers live and die by these loads and gradients.  Hand-computed
running-example cases pin the forward sweep; every derivative is checked
against central finite differences; and hypothesis compares loads with the
reference propagation (:mod:`repro.routing.propagation`) on random
augmented DAGs.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_kernel_differential import networks  # noqa: E402

from repro.core.dag_builder import build_dags  # noqa: E402
from repro.core.gp import _GpProblem  # noqa: E402
from repro.core.softmax_opt import _Problem, optimize_splitting_softmax  # noqa: E402
from repro.demands.matrix import DemandMatrix  # noqa: E402
from repro.experiments.running_example import example_dag  # noqa: E402
from repro.demands.bimodal import bimodal_matrix  # noqa: E402
from repro.ecmp.weights import inverse_capacity_weights  # noqa: E402
from repro.graph.dag import Dag  # noqa: E402
from repro.graph.network import Network  # noqa: E402
from repro.kernel.csr import csr_index  # noqa: E402
from repro.kernel.flowgrad import FlowProgram  # noqa: E402
from repro.routing.propagation import propagate_to_destination  # noqa: E402
from repro.routing.splitting import uniform_ratios  # noqa: E402
from repro.topologies.zoo import load_topology  # noqa: E402

SETTINGS = settings(max_examples=25, deadline=None)


def arrival(network: Network, arrivals: np.ndarray, node, row: int = 0) -> np.ndarray:
    """Arrival vector of ``node`` in destination row ``row``."""
    index = csr_index(network)
    return arrivals[row * index.num_nodes + index.node_id[node]]


def edge_load(program: FlowProgram, loads: np.ndarray, edge) -> np.ndarray:
    return loads[program.edges.index(edge)]


@pytest.fixture
def graph(running_example, two_user_demands):
    dag = example_dag(running_example)
    program = FlowProgram(running_example, {"t": dag}, two_user_demands)
    return dag, program, program.ratios_vector({"t": uniform_ratios(dag)})


class TestForward:
    def test_arrivals_match_hand_computation(self, running_example, graph):
        _dag, program, phi = graph
        arrivals, flows = program.forward(phi)
        loads = program.edge_loads(flows)
        # Matrix 0: 2 units at s1 -> 1 to s2, 1 to v; s2 splits again.
        assert arrival(running_example, arrivals, "s2")[0] == pytest.approx(1.0)
        assert arrival(running_example, arrivals, "v")[0] == pytest.approx(1.5)
        assert arrival(running_example, arrivals, "t")[0] == pytest.approx(2.0)
        assert edge_load(program, loads, ("v", "t"))[0] == pytest.approx(1.5)

    def test_second_matrix_independent(self, running_example, graph):
        _dag, program, phi = graph
        arrivals, _ = program.forward(phi)
        # Matrix 1: 2 units at s2 only.
        assert arrival(running_example, arrivals, "s1")[1] == pytest.approx(0.0)
        assert arrival(running_example, arrivals, "t")[1] == pytest.approx(2.0)

    def test_zero_ratio_prunes_edge(self, running_example, graph):
        dag, program, _phi = graph
        ratios = uniform_ratios(dag)
        ratios[("s2", "v")] = 0.0
        ratios[("s2", "t")] = 1.0
        _, flows = program.forward(program.ratios_vector({"t": ratios}))
        loads = program.edge_loads(flows)
        assert not edge_load(program, loads, ("s2", "v")).any()

    def test_total_loads_aggregates(self, running_example):
        dags = build_dags(running_example, {e: 1.0 for e in running_example.edges()})
        demand = DemandMatrix({("s1", "t"): 2.0, ("s1", "v"): 1.0, ("s2", "t"): 1.0})
        program = FlowProgram(running_example, dags, [demand])
        ratios = {t: uniform_ratios(dag) for t, dag in dags.items()}
        _, flows = program.forward(program.ratios_vector(ratios))
        loads = program.edge_loads(flows)
        # (s1, v) carries s1 -> v whole and half of s1 -> t.
        assert edge_load(program, loads, ("s1", "v"))[0] == pytest.approx(2.0)
        expected: dict = {}
        for t, dag in dags.items():
            _, edge_flows = propagate_to_destination(dag, ratios[t], demand.demands_to(t))
            for edge, flow in edge_flows.items():
                expected[edge] = expected.get(edge, 0.0) + flow
        for edge in program.edges:
            assert edge_load(program, loads, edge)[0] == pytest.approx(expected.get(edge, 0.0))

    def test_max_utilization(self, graph):
        _dag, program, phi = graph
        _, flows = program.forward(phi)
        assert program.max_utilization(program.edge_loads(flows)) == pytest.approx(1.5)


class TestBackward:
    def _numeric_gradient(self, program, phi, psi, instance, epsilon=1e-6):
        def functional(p):
            _, flows = program.forward(p)
            return float((psi * program.edge_loads(flows)).sum())

        plus, minus = phi.copy(), phi.copy()
        plus[instance] += epsilon
        minus[instance] -= epsilon
        return (functional(plus) - functional(minus)) / (2 * epsilon)

    def test_gradient_matches_finite_differences(self, graph):
        _dag, program, phi = graph
        rng = np.random.default_rng(42)
        psi = rng.random((len(program.edges), 2))
        arrivals, _ = program.forward(phi)
        (analytic,) = program.backward(phi, arrivals, psi)
        for instance in range(program.num_instances):
            numeric = self._numeric_gradient(program, phi, psi, instance)
            assert analytic[instance] == pytest.approx(numeric, abs=1e-5)

    def test_gradient_zero_when_no_flow(self, graph):
        _dag, program, phi = graph
        # An unweighted functional has no sensitivity anywhere.
        arrivals, _ = program.forward(phi)
        (grad,) = program.backward(phi, arrivals, np.zeros((len(program.edges), 2)))
        assert np.all(np.abs(grad) < 1e-12)


class TestJacobian:
    def test_forward_mode_matches_finite_differences(self, graph):
        _dag, program, phi = graph
        arrivals, _ = program.forward(phi)
        jacobian = program.load_jacobian(phi, arrivals)
        variables = [e for _t, _n, edges in program.groups for e in edges]
        assert set(variables) == {("s1", "s2"), ("s1", "v"), ("s2", "t"), ("s2", "v")}
        epsilon = 1e-6
        for v, var in enumerate(variables):
            # Perturb the log-ratio: phi -> phi * exp(eps).
            position = program.keys.index(("t", var))
            plus, minus = phi.copy(), phi.copy()
            plus[position] *= math.exp(epsilon)
            minus[position] *= math.exp(-epsilon)
            numeric = (
                program.edge_loads(program.forward(plus)[1])
                - program.edge_loads(program.forward(minus)[1])
            ) / (2 * epsilon)
            assert np.allclose(jacobian[v], numeric, atol=1e-5)


# -- hypothesis differentials on random augmented DAGs ------------------------


@st.composite
def problems(draw):
    """A random network, its augmented DAGs, K demand matrices and a theta."""
    net = draw(networks())
    dags = build_dags(net, {e: 1.0 for e in net.edges()}, augment=True)
    nodes = net.nodes()
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    volumes = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
    matrices = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        chosen = draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=len(pairs)))
        matrices.append(DemandMatrix({pair: draw(volumes) for pair in sorted(chosen)}))
    problem = _Problem(net, dags, matrices)
    theta = np.array(
        draw(st.lists(st.floats(-3.0, 3.0), min_size=problem.size, max_size=problem.size))
    )
    return net, dags, matrices, problem, theta


def smoothed(problem: _Problem, theta: np.ndarray, temperature: float, regularization=0.0):
    """One start's soft maximum and gradient."""
    values, gradients = problem.smoothed(theta[np.newaxis], [temperature], regularization)
    return values[0], gradients[0]


def mean_utilization(problem: _Problem, theta: np.ndarray):
    """The polish's mean utilization over the balance set, and its gradient."""
    _soft, mean = problem.penalized(theta, 8.0)
    return mean


def central_difference(function, theta: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar or vector function; last axis is ``theta``."""
    grad = np.zeros(np.shape(function(theta)) + (theta.size,))
    for i in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += epsilon
        minus[i] -= epsilon
        grad[..., i] = (np.asarray(function(plus)) - np.asarray(function(minus))) / (2 * epsilon)
    return grad


class TestAgainstReference:
    @SETTINGS
    @given(problems())
    def test_loads_match_propagation(self, case):
        net, dags, matrices, problem, theta = case
        program = problem.program
        ratios = problem.ratios_from_theta(theta)
        _, flows = program.forward(program.instance_ratios(program.softmax(theta)))
        loads = program.edge_loads(flows)
        for k, dm in enumerate(matrices):
            expected: dict = {}
            for t, dag in dags.items():
                _, edge_flows = propagate_to_destination(dag, ratios[t], dm.demands_to(t))
                for edge, flow in edge_flows.items():
                    expected[edge] = expected.get(edge, 0.0) + flow
            for edge in net.edges():
                got = edge_load(program, loads, edge)[k] if edge in program.edges else 0.0
                assert got == pytest.approx(expected.get(edge, 0.0), abs=1e-9), (edge, k)

    @SETTINGS
    @given(problems(), st.sampled_from([8.0, 32.0]), st.sampled_from([0.0, 0.05]))
    def test_smoothed_gradient(self, case, temperature, regularization):
        *_, problem, theta = case
        assume(problem.size > 0)
        _, analytic = smoothed(problem, theta, temperature, regularization)
        numeric = central_difference(
            lambda th: smoothed(problem, th, temperature, regularization)[0], theta
        )
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    @SETTINGS
    @given(problems())
    def test_mean_utilization_gradient(self, case):
        net, dags, matrices, problem, theta = case
        assume(problem.size > 0)
        polish = _Problem(net, dags, matrices, matrices)
        _, analytic = mean_utilization(polish, theta)
        numeric = central_difference(lambda th: mean_utilization(polish, th)[0], theta)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    @SETTINGS
    @given(problems())
    def test_gp_constraint_jacobian(self, case):
        net, dags, matrices, problem, theta = case
        assume(problem.size > 0)
        gp = _GpProblem(net, dags, matrices)
        z = np.append(np.log(gp.program.softmax(theta)), 0.5)
        _, analytic = gp.load_constraints(z)
        numeric = central_difference(lambda zz: gp.load_constraints(zz)[0], z)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-6)


def fan_network() -> Network:
    """``s`` splits over ten relays and a direct edge; every relay feeds ``t``.

    ``s`` has out-degree 11 (``reduceat`` sums 8+ elements in unrolled
    blocks), and the relay level scatters ten instances into ``t`` (the
    duplicate order of ``add.at``).
    """
    net = Network(name="fan")
    relays = [f"m{i}" for i in range(10)]
    for relay in relays:
        net.add_edge("s", relay, 3.0)
        net.add_edge(relay, "t", 2.0)
    net.add_edge("s", "t", 4.0)
    net.add_edge("m0", "m1", 1.0)
    return net


def fan_case():
    net = fan_network()
    edges = [("s", f"m{i}") for i in range(10)] + [("s", "t"), ("m0", "m1")]
    edges += [(f"m{i}", "t") for i in range(10)]
    dags = {"t": Dag("t", edges, net)}
    rng = np.random.default_rng(3)
    sources = ["s", "m0", "m1", "m5"]
    matrices = [
        DemandMatrix({(u, "t"): float(v) for u, v in zip(sources, rng.uniform(0.5, 3.0, 4))})
        for _ in range(3)
    ]
    return net, dags, matrices


def zoo_case(name: str, count: int):
    net = load_topology(name)
    dags = build_dags(net, inverse_capacity_weights(net), augment=True)
    return net, dags, [bimodal_matrix(net, seed) for seed in range(count)]


@pytest.fixture(scope="module", params=["abilene", "geant", "fan"])
def batch_case(request):
    if request.param == "fan":
        return fan_case()
    return zoo_case(request.param, 4)


class TestBatchedStarts:
    """A block of S starts in one sweep is, bit for bit, S one-start sweeps."""

    def test_fan_reaches_the_unrolled_and_duplicate_paths(self):
        program = FlowProgram(*fan_case())
        assert max(len(edges) for _t, _n, edges in program.groups) >= 9
        assert max(np.bincount(heads).max() for _s, _t, heads in program.schedule.levels) >= 3

    def test_every_kernel_step_matches_single_starts(self, batch_case):
        program = FlowProgram(*batch_case)
        rng = np.random.default_rng(11)
        thetas = rng.uniform(-12.0, 12.0, (4, program.size))
        thetas[0] = 0.0
        shares = program.softmax(thetas)
        phi = program.instance_ratios(shares)
        arrivals, flows = program.forward(phi)
        loads = program.edge_loads(flows)
        psi = rng.random(loads.shape)
        (grad_phi,) = program.backward(phi, arrivals, psi)
        grad = program.softmax_gradient(shares, grad_phi)
        assert arrivals.shape[1] == flows.shape[1] == loads.shape[1] == grad_phi.shape[1] == 4
        for start, theta in enumerate(thetas):
            one_shares = program.softmax(theta)
            one_phi = program.instance_ratios(one_shares)
            one_arrivals, one_flows = program.forward(one_phi)
            (one_grad_phi,) = program.backward(one_phi, one_arrivals, psi[:, start])
            assert np.array_equal(shares[start], one_shares)
            assert np.array_equal(phi[:, start], one_phi)
            assert np.array_equal(arrivals[:, start], one_arrivals)
            assert np.array_equal(flows[:, start], one_flows)
            assert np.array_equal(loads[:, start], program.edge_loads(one_flows))
            assert np.array_equal(grad_phi[:, start], one_grad_phi)
            assert np.array_equal(grad[start], program.softmax_gradient(one_shares, one_grad_phi))

    def test_objectives_match_single_starts(self, batch_case):
        problem = _Problem(*batch_case)
        rng = np.random.default_rng(5)
        thetas = rng.uniform(-12.0, 12.0, (3, problem.size))
        temperatures = [8.0, 64.0, 32.0]
        values, gradients = problem.smoothed(thetas, temperatures, 5e-3)
        truths = problem.true_objective(thetas)
        for start, (theta, temperature) in enumerate(zip(thetas, temperatures)):
            value, gradient = smoothed(problem, theta, temperature, 5e-3)
            assert values[start] == value and np.array_equal(gradients[start], gradient)
            assert truths[start] == problem.true_objective(theta[np.newaxis])[0]

    def test_shared_polish_sweep_matches_separate_sweeps(self, batch_case):
        net, dags, matrices = batch_case
        penalty, balance = matrices[:3], matrices[3:] or matrices[:1]
        shared = FlowProgram(net, dags, [*penalty, *balance])
        blocks = (slice(0, len(penalty)), slice(len(penalty), len(penalty) + len(balance)))
        rng = np.random.default_rng(8)
        theta = rng.uniform(-12.0, 12.0, (1, shared.size))
        phi = shared.instance_ratios(shared.softmax(theta))
        arrivals, flows = shared.forward(phi)
        loads = shared.edge_loads(flows)
        psi = rng.random(loads.shape)
        gradients = shared.backward(phi, arrivals, psi, blocks)
        for batch, columns, gradient in zip((penalty, balance), blocks, gradients):
            program = FlowProgram(net, dags, batch)
            alone_arrivals, alone_flows = program.forward(phi)
            assert np.array_equal(alone_arrivals, arrivals[..., columns])
            assert np.array_equal(program.edge_loads(alone_flows), loads[..., columns])
            own_psi = np.ascontiguousarray(psi[..., columns])
            (alone,) = program.backward(phi, alone_arrivals, own_psi)
            assert np.array_equal(alone, gradient)

    def test_polish_terms_match_separate_problems(self, batch_case):
        """Each polish term is bit for bit the same whatever set rides beside it."""
        net, dags, matrices = batch_case
        penalty, balance = matrices[:3], matrices[3:] or matrices[:1]
        theta = np.random.default_rng(2).uniform(-12.0, 12.0, FlowProgram(*batch_case).size)
        (soft, soft_grad), (mean, mean_grad) = _Problem(net, dags, penalty, balance).penalized(
            theta, 64.0
        )
        value, gradient = smoothed(_Problem(net, dags, penalty), theta, 64.0)
        assert soft == value and np.array_equal(soft_grad, gradient)
        _, (other_mean, other_grad) = _Problem(net, dags, balance, balance).penalized(theta, 8.0)
        assert mean == other_mean and np.array_equal(mean_grad, other_grad)


class TestEdgeCases:
    def test_idle_finite_edge_is_excluded(self, diamond):
        """Edges without load add no exp(-tau * peak) term to the soft max."""
        dags = build_dags(diamond, {e: 1.0 for e in diamond.edges()}, augment=True)
        dags = {"d": dags["d"]}
        matrices = [DemandMatrix({("b", "d"): 1.0})]
        problem = _Problem(diamond, dags, matrices)
        theta = np.zeros(problem.size)
        program = problem.program
        _, flows = program.forward(program.instance_ratios(program.softmax(theta)))
        loads = program.edge_loads(flows)
        idle = [e for e in program.edges if not edge_load(program, loads, e).any()]
        assert any(math.isfinite(diamond.capacity(*e)) for e in idle)
        peak = program.max_utilization(loads)
        for temperature in (8.0, 32.0):
            value, grad = smoothed(problem, theta, temperature)
            assert value == pytest.approx(peak, abs=1e-12)
            numeric = central_difference(lambda th: smoothed(problem, th, temperature)[0], theta)
            assert np.allclose(grad, numeric, atol=1e-6)
        value, _ = mean_utilization(_Problem(diamond, dags, matrices, matrices), theta)
        assert value == pytest.approx(peak, abs=1e-12)

    def test_single_out_edge_dags_have_no_variables(self):
        ring = Network(name="ring")
        for u, v in [("a", "b"), ("b", "c"), ("c", "a")]:
            ring.add_edge(u, v, 2.0)
        dags = build_dags(ring, {e: 1.0 for e in ring.edges()}, augment=True)
        matrices = [DemandMatrix({("a", "c"): 1.0, ("b", "a"): 3.0})]
        problem = _Problem(ring, dags, matrices)
        assert problem.size == 0
        value, grad = smoothed(problem, np.zeros(0), 8.0)
        assert grad.shape == (0,)
        solution = optimize_splitting_softmax(ring, dags, matrices)
        assert solution.evaluations == 0
        # a -> c rides (a, b), (b, c); b -> a rides (b, c), (c, a).
        assert solution.objective == pytest.approx(4.0 / 2.0)
        assert value >= solution.objective
