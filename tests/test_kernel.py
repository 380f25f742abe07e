"""Unit tests for the vectorized routing kernel (:mod:`repro.kernel`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.local_search import MAX_WEIGHT, _weight_search_reference, weight_search
from repro.demands.gravity import gravity_matrix
from repro.demands.matrix import DemandMatrix
from repro.ecmp.weights import integer_scaled_weights, inverse_capacity_weights
from repro.exceptions import GraphError, RoutingError
from repro.graph.dag import Dag
from repro.graph.network import Network
from repro.kernel.csr import csr_index, weight_vector
from repro.kernel.delta import EcmpDeltaEvaluator, ecmp_max_utilization
from repro.kernel.propagate import LevelSchedule, topological_edge_ids
from repro.kernel.spf import all_targets_spf, compute_spf_state
from repro.lp.worst_case import normalize_to_unit_optimum


@pytest.fixture
def abilene():
    from repro.topologies.zoo import load_topology

    return load_topology("abilene")


class TestCsrIndex:
    def test_index_is_cached_per_network(self, abilene):
        assert csr_index(abilene) is csr_index(abilene)

    def test_cache_entries_die_with_their_network(self):
        # The index cache must not pin networks: the value holds only a
        # weak back-reference, so dropping the network frees the entry
        # (and its memoized SPF states) instead of leaking per cell.
        import gc
        import weakref

        from repro.topologies.zoo import load_topology

        network = load_topology("abilene")
        index_ref = weakref.ref(csr_index(network))
        network_ref = weakref.ref(network)
        del network
        gc.collect()
        assert network_ref() is None
        assert index_ref() is None

    def test_network_property_survives_while_reachable(self, abilene):
        index = csr_index(abilene)
        assert index.network is abilene

    def test_edge_order_matches_network(self, abilene):
        index = csr_index(abilene)
        assert list(index.edges) == abilene.edges()
        for i, (u, v) in enumerate(index.edges):
            assert index.nodes[index.tail[i]] == u
            assert index.nodes[index.head[i]] == v
            assert index.capacity[i] == abilene.capacity(u, v)

    def test_weight_vector_validates_like_reference(self, abilene):
        index = csr_index(abilene)
        weights = inverse_capacity_weights(abilene)
        with pytest.raises(GraphError, match="missing weight"):
            weight_vector(index, {})
        bad = dict(weights)
        bad[abilene.edges()[0]] = 0.0
        with pytest.raises(GraphError, match="must be > 0"):
            weight_vector(index, bad)

    def test_reversed_csr_entries(self, abilene):
        index = csr_index(abilene)
        vector = weight_vector(index, inverse_capacity_weights(abilene))
        matrix = index.reversed_csr(vector).toarray()
        for i, (u, v) in enumerate(index.edges):
            assert matrix[index.node_id[v], index.node_id[u]] == vector[i]


class TestSpfState:
    def test_memoized_per_weight_vector(self, abilene):
        weights = inverse_capacity_weights(abilene)
        assert all_targets_spf(abilene, weights) is all_targets_spf(abilene, weights)
        other = {e: w * 2.0 for e, w in weights.items()}
        assert all_targets_spf(abilene, other) is not all_targets_spf(abilene, weights)

    def test_compute_never_memoizes(self, abilene):
        weights = inverse_capacity_weights(abilene)
        assert compute_spf_state(abilene, weights) is not compute_spf_state(abilene, weights)

    def test_dag_objects_round_trip(self, abilene):
        weights = inverse_capacity_weights(abilene)
        state = all_targets_spf(abilene, weights)
        for t in abilene.nodes():
            dag = state.dag(t)
            assert dag.root == t
            assert dag.network is abilene


def _schedule(net: Network, instances: list[tuple[int, str, str]]) -> LevelSchedule:
    """A schedule over ``(row, tail, head)`` instances, in the given order."""
    index = csr_index(net)
    rows = np.array([row for row, _u, _v in instances], dtype=np.int64)
    edges = np.array([index.edge_id[(u, v)] for _r, u, v in instances], dtype=np.int64)
    return LevelSchedule(index, rows, edges)


class TestLevelSchedule:
    def test_cycle_raises(self):
        net = Network.from_edges([("a", "b", 1.0), ("b", "a", 1.0)])
        with pytest.raises(RoutingError, match="cycle"):
            _schedule(net, [(0, "a", "b"), (0, "b", "a")])

    def test_cycle_confined_to_one_row_raises(self):
        net = Network.from_edges([("a", "b", 1.0), ("b", "a", 1.0), ("b", "c", 1.0)])
        with pytest.raises(RoutingError, match="cycle"):
            _schedule(net, [(0, "a", "b"), (0, "b", "c"), (1, "a", "b"), (1, "b", "a")])

    def test_levels_respect_dependencies(self):
        net = Network.from_edges(
            [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)]
        )
        schedule = _schedule(net, [(0, "a", "b"), (0, "b", "c"), (0, "a", "c")])
        level_of = {
            int(i): k
            for k, (span, _tails, _heads) in enumerate(schedule.levels)
            for i in range(span.start, span.stop)
        }
        assert set(level_of) == {0, 1, 2}
        # Every instance into a tail must fire strictly before the tail's
        # own out-edges, so arrivals are complete when they are read.
        for i, k in level_of.items():
            for i2, k2 in level_of.items():
                if schedule.head[i2] == schedule.tail[i]:
                    assert k2 < k, (i2, i)

    def test_rows_of_different_depth_match_single_row_schedules(self):
        net = Network.from_edges(
            [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("a", "d", 1.0)]
            + [("b", "d", 1.0)]
        )
        deep = [("a", "b"), ("b", "c"), ("b", "d"), ("c", "d")]
        shallow = [("a", "d"), ("b", "d")]
        phi = {("a", "b"): 1.0, ("b", "c"): 0.25, ("b", "d"): 0.75, ("c", "d"): 1.0}
        phi[("a", "d")] = 1.0
        num_nodes = csr_index(net).num_nodes
        seed = np.arange(2 * num_nodes * 2, dtype=np.float64).reshape(2 * num_nodes, 2)

        def sweep(instances, arrivals):
            """Flows keyed by instance, swept in place over ``arrivals``."""
            schedule = _schedule(net, instances)
            ordered = [instances[i] for i in schedule.order]
            flows = schedule.forward(np.array([phi[(u, v)] for _r, u, v in ordered]), arrivals)
            return dict(zip(ordered, flows.tolist()))

        combined_arrivals = seed.copy()
        combined = sweep(
            [(0, u, v) for u, v in deep] + [(1, u, v) for u, v in shallow], combined_arrivals
        )
        alone_deep = seed[:num_nodes].copy()
        alone_shallow = seed[num_nodes:].copy()
        expected = sweep([(0, u, v) for u, v in deep], alone_deep)
        shallow_flows = sweep([(0, u, v) for u, v in shallow], alone_shallow)
        expected.update({(1, u, v): f for (_r, u, v), f in shallow_flows.items()})
        assert combined == expected
        assert np.array_equal(combined_arrivals, np.vstack([alone_deep, alone_shallow]))

    def test_empty_instance_set(self):
        net = Network.from_edges([("a", "b", 1.0)])
        schedule = _schedule(net, [])
        assert schedule.levels == []
        arrivals = np.ones((2, 3))
        flows = schedule.forward(np.empty(0), arrivals)
        assert flows.shape == (0, 3)
        assert np.array_equal(arrivals, np.ones((2, 3)))

    def test_non_contiguous_state_is_refused(self):
        net = Network.from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
        schedule = _schedule(net, [(0, "a", "b"), (0, "b", "c")])
        # The sweep writes through a flat view; a strided state has none.
        arrivals = np.asfortranarray(np.ones((3, 2)))
        with pytest.raises(ValueError, match="C-contiguous"):
            schedule.forward(np.ones(2), arrivals)

    def test_level_keeps_caller_order(self):
        net = Network.from_edges(
            [("a", "d", 1.0), ("b", "d", 1.0), ("c", "d", 1.0), ("a", "b", 1.0)]
        )
        instances = [(1, "c", "d"), (0, "b", "d"), (0, "a", "b"), (1, "a", "d"), (0, "a", "d")]
        schedule = _schedule(net, instances)
        index = csr_index(net)
        # Depth-0 tails: c and a (both rows); b is fed by a in row 0.
        assert schedule.order.tolist() == [0, 2, 3, 4, 1]
        assert [int(span.stop - span.start) for span, _t, _h in schedule.levels] == [4, 1]
        assert schedule.edge.tolist() == [
            index.edge_id[(u, v)] for _r, u, v in (instances[i] for i in schedule.order)
        ]


class TestTopologicalEdgeIds:
    def test_tails_in_topological_order_and_cached(self):
        net = Network.from_edges([("a", "c", 1.0), ("b", "c", 1.0), ("a", "b", 1.0)])
        dag = Dag("c", [("b", "c"), ("a", "c"), ("a", "b")], net)
        index = csr_index(net)
        ids = topological_edge_ids(index, dag)
        assert [index.edges[e] for e in ids.tolist()] == [
            (tail, head) for tail in dag.topological_order() for head in dag.out_neighbors(tail)
        ]
        assert topological_edge_ids(index, dag) is ids

    def test_edge_missing_from_the_network_raises(self):
        net = Network.from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
        dag = Dag("c", [("a", "b"), ("b", "c")], net)
        other = Network.from_edges([("a", "b", 1.0), ("c", "b", 1.0)])
        with pytest.raises(RoutingError, match="not a network edge"):
            topological_edge_ids(csr_index(other), dag)


class TestDeltaEvaluator:
    def test_unreachable_demand_source_raises(self):
        # b -> a exists but a cannot reach c; demand a -> c is an error,
        # matching the reference propagation.
        net = Network.from_edges(
            [("a", "b", 1.0), ("b", "a", 1.0), ("b", "c", 1.0), ("c", "b", 1.0)]
        )
        net.add_edge("d", "a", 1.0)  # d reaches everything, nothing reaches d
        weights = {e: 1.0 for e in net.edges()}
        demand = DemandMatrix({("a", "d"): 1.0})
        with pytest.raises(RoutingError, match="not part of the DAG"):
            EcmpDeltaEvaluator(net, weights, [demand])

    def test_empty_matrices_zero_utilization(self, abilene):
        weights = {e: 1.0 for e in abilene.edges()}
        evaluator = EcmpDeltaEvaluator(abilene, weights, [])
        assert evaluator.utilization() == 0.0
        assert evaluator.per_edge_utilization() == {}

    def test_no_op_move_affects_nothing(self, abilene):
        weights = {e: 2.0 for e in abilene.edges()}
        demand = DemandMatrix({(abilene.nodes()[0], abilene.nodes()[1]): 1.0})
        evaluator = EcmpDeltaEvaluator(abilene, weights, [demand])
        edge = abilene.edges()[0]
        candidate = evaluator.evaluate_move(edge, 2.0)
        assert candidate.affected.size == 0
        assert candidate.utilization == evaluator.utilization()

    def test_raising_weight_of_non_dag_edge_affects_nothing(self):
        net = Network.from_undirected([("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)])
        weights = {e: 1.0 for e in net.edges()}
        weights[("a", "c")] = 5.0  # not on any shortest path
        weights[("c", "a")] = 5.0
        demand = DemandMatrix({("a", "c"): 1.0})
        evaluator = EcmpDeltaEvaluator(net, weights, [demand])
        candidate = evaluator.evaluate_move(("a", "c"), 9.0)
        assert candidate.affected.size == 0

    def test_move_for_one_destination_with_several_matrices(self, abilene):
        """One re-solved destination makes the sweep's arrivals a strided
        reshape; the move must still score like a fresh evaluation."""
        weights = {e: 2.0 for e in abilene.edges()}
        nodes = abilene.nodes()
        target = nodes[0]
        matrices = [
            DemandMatrix({(nodes[1], target): 1.0, (nodes[2], target): 2.0}),
            DemandMatrix({(nodes[3], target): 3.0}),
        ]
        evaluator = EcmpDeltaEvaluator(abilene, weights, matrices)
        edge = next(e for e in abilene.edges() if e[1] == target)
        candidate = evaluator.evaluate_move(edge, 7.0)
        assert candidate.affected.size == 1
        moved = dict(weights)
        moved[edge] = 7.0
        fresh = EcmpDeltaEvaluator(abilene, moved, matrices)
        assert candidate.utilization == pytest.approx(fresh.utilization(), abs=1e-12)

    def test_weight_mapping_round_trips(self, abilene):
        weights = {e: float(i % 5 + 1) for i, e in enumerate(abilene.edges())}
        evaluator = EcmpDeltaEvaluator(abilene, weights, [])
        assert evaluator.weight_mapping() == weights


class TestWeightSearchKernelPath:
    def test_kernel_and_reference_agree_on_abilene(self, abilene):
        weights = integer_scaled_weights(inverse_capacity_weights(abilene), MAX_WEIGHT)
        base = normalize_to_unit_optimum(abilene, gravity_matrix(abilene))
        kernel_result = weight_search(abilene, weights, [base], max_moves=4)
        reference_result = _weight_search_reference(
            abilene, weights, [base], max_moves=4, tabu_length=4
        )
        assert kernel_result == reference_result

    def test_weight_step_phase_recorded(self, abilene):
        from repro.runner.timing import timed_solve

        weights = integer_scaled_weights(inverse_capacity_weights(abilene), MAX_WEIGHT)
        base = normalize_to_unit_optimum(abilene, gravity_matrix(abilene))
        _result, timings = timed_solve(weight_search, abilene, weights, [base], max_moves=2)
        assert timings.get("weight_step", 0.0) > 0.0
        assert timings["weight_step"] <= timings["total"] + 1e-9

    def test_ecmp_utilization_dispatches_identically(self, abilene, reference_ecmp_utilization):
        weights = {e: float(v) for e, v in integer_scaled_weights(
            inverse_capacity_weights(abilene), MAX_WEIGHT
        ).items()}
        base = normalize_to_unit_optimum(abilene, gravity_matrix(abilene))
        kernel_value = ecmp_max_utilization(abilene, weights, [base])
        reference_value = reference_ecmp_utilization(abilene, weights, [base])
        assert kernel_value == pytest.approx(reference_value, abs=1e-9)
