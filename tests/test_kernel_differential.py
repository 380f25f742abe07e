"""Differential tests: vectorized kernel vs the pure-Python reference.

The kernel (:mod:`repro.kernel`) re-implements the routing inner loop —
shortest-path DAG extraction, splitting ratios, flow propagation, load
coefficients, and the local search's delta-evaluated weight step — and the
reference implementations stay in the tree as the behavioral oracle.
Hypothesis generates random strongly connected digraphs, weights (with
deliberate ECMP ties, including perturbations inside and outside the
``_TIE_RTOL`` band), and demand matrices, and asserts:

* identical DAG edge sets (exact — distances are bit-identical);
* identical equal-split ratios and link loads within 1e-9;
* identical oracle load coefficients within 1e-9, on ECMP DAGs and on
  augmented DAGs with random non-uniform ratios (some of them zero);
* the delta evaluator's incremental scores match from-scratch kernel and
  pure-Python evaluations, move after committed move.

The reference side of every comparison calls the pure-Python oracles by
name (``shortest_path_dag``, ``Routing.link_loads_reference``,
``load_coefficients_reference``, and the ``reference_ecmp_routing`` /
``reference_ecmp_utilization`` fixtures built from them); no
``repro.kernel`` code runs there.  The augmented-DAG cases hand both sides
the same ``build_dags`` output, so there the comparison is propagation
only.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.dag_builder import build_dags  # noqa: E402
from repro.demands.matrix import DemandMatrix  # noqa: E402
from repro.ecmp.routing import ecmp_routing  # noqa: E402
from repro.graph.network import Network  # noqa: E402
from repro.graph.paths import _TIE_RTOL, shortest_path_dag  # noqa: E402
from repro.kernel.delta import EcmpDeltaEvaluator, ecmp_max_utilization  # noqa: E402
from repro.kernel.spf import all_targets_spf, shortest_path_dags  # noqa: E402
from repro.routing.propagation import (  # noqa: E402
    load_coefficients,
    load_coefficients_reference,
)
from repro.routing.splitting import Routing, uniform_ratios  # noqa: E402

SETTINGS = settings(max_examples=25, deadline=None)

#: Weight values chosen so distinct paths frequently sum to equal cost
#: (powers of two and small integers produce plenty of ECMP ties).
WEIGHT_VALUES = (1.0, 2.0, 3.0, 4.0, 0.5)


@st.composite
def networks(draw) -> Network:
    """A small strongly connected digraph with deterministic edge order.

    A directed ring guarantees strong connectivity; random extra edges
    add the path diversity that makes ECMP interesting.
    """
    n = draw(st.integers(min_value=3, max_value=7))
    nodes = [f"n{i}" for i in range(n)]
    ring = {(nodes[i], nodes[(i + 1) % n]) for i in range(n)}
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
        lambda edge: edge[0] != edge[1]
    )
    extra = draw(st.sets(pairs, max_size=2 * n))
    net = Network(name="hyp")
    for u, v in sorted(ring | extra):
        net.add_edge(u, v, draw(st.sampled_from((1.0, 2.0, 5.0))))
    return net


@st.composite
def weighted_networks(draw):
    net = draw(networks())
    weights = {e: draw(st.sampled_from(WEIGHT_VALUES)) for e in net.edges()}
    return net, weights


@st.composite
def weighted_networks_with_demands(draw):
    net, weights = draw(weighted_networks())
    nodes = net.nodes()
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    chosen = draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=len(pairs)))
    volumes = {
        pair: draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
        for pair in chosen
    }
    return net, weights, DemandMatrix(volumes)


class TestSpfEquivalence:
    @SETTINGS
    @given(weighted_networks())
    def test_identical_dag_edge_sets(self, case):
        net, weights = case
        kernel_dags = shortest_path_dags(net, weights)
        for t in net.nodes():
            reference = shortest_path_dag(net, weights, t)
            assert kernel_dags[t].edges() == reference.edges(), t

    @SETTINGS
    @given(weighted_networks())
    def test_identical_distances(self, case):
        from repro.graph.paths import dijkstra_to_target

        net, weights = case
        state = all_targets_spf(net, weights)
        for t in net.nodes():
            reference = dijkstra_to_target(net, weights, t)
            kernel = state.distances(t)
            assert all(kernel[n] == reference[n] for n in net.nodes()), t

    @SETTINGS
    @given(weighted_networks())
    def test_identical_uniform_ratios(self, case):
        net, weights = case
        state = all_targets_spf(net, weights)
        ratio_rows = state.uniform_ratios()
        index = state.index
        for t in net.nodes():
            reference = uniform_ratios(shortest_path_dag(net, weights, t))
            row = ratio_rows[index.node_id[t]]
            kernel = {
                index.edges[e]: row[e] for e in range(index.num_edges) if row[e] != 0.0
            }
            assert set(kernel) == set(reference), t
            assert all(abs(kernel[e] - reference[e]) <= 1e-9 for e in reference), t

    def test_tie_inside_and_outside_tolerance_band(self):
        """Perturbations near _TIE_RTOL resolve identically on both paths."""
        net = Network.from_undirected(
            [("a", "b", 1.0), ("a", "c", 1.0), ("b", "d", 1.0), ("c", "d", 1.0)]
        )
        for scale in (1.0, 1e3):
            for perturbation, expect_both in [
                (0.0, True),  # exact tie
                (scale * _TIE_RTOL / 4, True),  # inside the band: still a tie
                (scale * _TIE_RTOL * 4096, False),  # outside: single path
            ]:
                weights = {e: scale for e in net.edges()}
                weights[("a", "b")] = scale + perturbation
                kernel = shortest_path_dags(net, weights)["d"]
                reference = shortest_path_dag(net, weights, "d")
                assert kernel.edges() == reference.edges(), (scale, perturbation)
                branches = set(kernel.out_neighbors("a"))
                assert (branches == {"b", "c"}) is expect_both, (scale, perturbation)


class TestPropagationEquivalence:
    @SETTINGS
    @given(weighted_networks_with_demands())
    def test_link_loads_match(self, reference_ecmp_routing, case):
        net, weights, demand = case
        kernel = ecmp_routing(net, weights).link_loads(demand)
        reference = reference_ecmp_routing(net, weights).link_loads_reference(demand)
        assert set(kernel) == set(reference)
        assert all(abs(kernel[e] - reference[e]) <= 1e-9 for e in reference)

    @SETTINGS
    @given(weighted_networks_with_demands())
    def test_max_utilization_matches(self, reference_ecmp_utilization, case):
        net, weights, demand = case
        kernel = ecmp_max_utilization(net, weights, [demand])
        reference = reference_ecmp_utilization(net, weights, [demand])
        assert kernel == pytest.approx(reference, abs=1e-9)

    def test_degenerate_distances_match_reference(self, reference_ecmp_utilization):
        # w(a->b) = 1e-20 vanishes in float addition: dist(a) == dist(b)
        # toward d, so the tight edge a->b has no strict distance
        # decrease; the sweep's depth schedule must still order it.
        links = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("c", "d"), ("d", "a"), ("b", "d")]
        net = Network.from_edges([(u, v, 1.0) for u, v in links])
        weights = {e: 1.0 for e in net.edges()}
        weights[("a", "b")] = 1e-20
        demand = DemandMatrix({("a", "d"): 1.0, ("b", "d"): 2.0, ("a", "c"): 1.0})
        kernel = ecmp_max_utilization(net, weights, [demand])
        reference = reference_ecmp_utilization(net, weights, [demand])
        assert kernel == pytest.approx(reference, abs=1e-9)
        assert kernel == pytest.approx(3.0)

    @SETTINGS
    @given(weighted_networks())
    def test_load_coefficients_match(self, reference_ecmp_routing, case):
        net, weights = case
        routing = ecmp_routing(net, weights)
        oracle = reference_ecmp_routing(net, weights)
        pairs = [(s, t) for s in net.nodes() for t in net.nodes() if s != t]
        kernel = load_coefficients(routing.dags, routing.ratios, pairs)
        reference = load_coefficients_reference(oracle.dags, oracle.ratios, pairs)
        assert set(kernel) == set(reference)
        for edge in reference:
            assert set(kernel[edge]) == set(reference[edge]), edge
            for pair in reference[edge]:
                assert kernel[edge][pair] == pytest.approx(
                    reference[edge][pair], abs=1e-9
                ), (edge, pair)


@st.composite
def augmented_routings(draw):
    """Augmented DAGs with random normalized ratios (some of them zero), and a demand."""
    net, weights, demand = draw(weighted_networks_with_demands())
    dags = build_dags(net, weights, augment=True)
    ratios = {}
    for t, dag in dags.items():
        ratios[t] = {}
        for node in dag.nodes():
            heads = dag.out_neighbors(node)
            if not heads:
                continue
            shares = [draw(st.sampled_from((0.0, 0.5, 1.0, 3.0))) for _ in heads]
            if not any(shares):
                shares[draw(st.integers(0, len(heads) - 1))] = 1.0
            total = sum(shares)
            for head, share in zip(heads, shares):
                ratios[t][(node, head)] = share / total
    return net, Routing(dags, ratios), demand


class TestAugmentedEquivalence:
    """The oracle's real input: augmented DAGs with non-uniform ratios."""

    @SETTINGS
    @given(augmented_routings())
    def test_load_coefficients_match(self, case):
        net, routing, _demand = case
        pairs = [(s, t) for s in net.nodes() for t in net.nodes() if s != t]
        kernel = load_coefficients(routing.dags, routing.ratios, pairs)
        reference = load_coefficients_reference(routing.dags, routing.ratios, pairs)
        assert set(kernel) == set(reference)
        for edge in reference:
            assert set(kernel[edge]) == set(reference[edge]), edge
            for pair in reference[edge]:
                assert abs(kernel[edge][pair] - reference[edge][pair]) <= 1e-9, (edge, pair)

    @SETTINGS
    @given(augmented_routings())
    def test_link_loads_match(self, case):
        _net, routing, demand = case
        kernel = routing.link_loads(demand)
        reference = routing.link_loads_reference(demand)
        assert set(kernel) == set(reference)
        assert all(abs(kernel[e] - reference[e]) <= 1e-9 for e in reference)


class TestDeltaEvaluatorEquivalence:
    @SETTINGS
    @given(weighted_networks_with_demands(), st.data())
    def test_moves_match_scratch_and_reference(self, reference_ecmp_utilization, case, data):
        net, weights, demand = case
        matrices = [demand]
        evaluator = EcmpDeltaEvaluator(net, weights, matrices)
        current = dict(weights)
        edges = net.edges()
        for _ in range(3):
            edge = data.draw(st.sampled_from(edges))
            new_weight = float(data.draw(st.sampled_from(WEIGHT_VALUES)))
            candidate = evaluator.evaluate_move(edge, new_weight)
            trial = dict(current)
            trial[edge] = new_weight
            scratch = ecmp_max_utilization(net, trial, matrices)
            assert candidate.utilization == pytest.approx(scratch, abs=1e-12)
            reference = reference_ecmp_utilization(net, trial, matrices)
            assert candidate.utilization == pytest.approx(reference, abs=1e-9)
            if data.draw(st.booleans()):
                evaluator.commit(candidate)
                current = trial
                assert evaluator.utilization() == pytest.approx(
                    ecmp_max_utilization(net, current, matrices), abs=1e-12
                )

    @SETTINGS
    @given(weighted_networks_with_demands())
    def test_pruning_never_hides_an_improvement(self, case):
        net, weights, demand = case
        matrices = [demand]
        evaluator = EcmpDeltaEvaluator(net, weights, matrices)
        threshold = evaluator.utilization() - 1e-9
        for edge in net.edges()[:4]:
            for value in (1.0, 4.0):
                pruned = evaluator.evaluate_move(edge, value, prune_above=threshold)
                full = evaluator.evaluate_move(edge, value)
                if pruned is None:
                    # Pruned candidates must genuinely be non-improving.
                    assert full.utilization >= threshold
                else:
                    assert pruned.utilization == full.utilization
