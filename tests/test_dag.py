"""Unit tests for the per-destination DAG type and its invariants."""

import pytest

from repro.exceptions import DagError
from repro.graph.dag import Dag
from repro.graph.network import Network


class TestInvariants:
    def test_simple_dag(self, diamond):
        dag = Dag("d", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], diamond)
        assert dag.root == "d"
        assert dag.num_edges == 4
        assert set(dag.out_neighbors("a")) == {"b", "c"}

    def test_cycle_rejected(self, triangle):
        with pytest.raises(DagError, match="cycle"):
            Dag("c", [("a", "b"), ("b", "a"), ("a", "c")], triangle)

    def test_root_out_edges_rejected(self, triangle):
        with pytest.raises(DagError, match="root"):
            Dag("c", [("c", "a"), ("a", "c")], triangle)

    def test_duplicate_edge_rejected(self, triangle):
        with pytest.raises(DagError, match="duplicate"):
            Dag("c", [("a", "c"), ("a", "c")], triangle)

    def test_non_network_edge_rejected(self, diamond):
        with pytest.raises(DagError, match="not a network edge"):
            Dag("d", [("a", "d")], diamond)

    def test_dead_end_rejected(self):
        # b has an in-edge but cannot reach the root.
        net = Network.from_edges(
            [("a", "t", 1.0), ("a", "b", 1.0), ("b", "t", 1.0)]
        )
        with pytest.raises(DagError, match="cannot reach the root"):
            Dag("t", [("a", "t"), ("a", "b")], net)


class TestTopology:
    def test_topological_order_respects_edges(self, diamond):
        dag = Dag("d", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], diamond)
        order = dag.topological_order()
        position = {node: i for i, node in enumerate(order)}
        for tail, head in dag.edges():
            assert position[tail] < position[head]
        assert order[-1] == "d"

    def test_splittable_nodes(self, diamond):
        dag = Dag("d", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], diamond)
        assert dag.splittable_nodes() == ["a"]

    def test_contains_dag(self, diamond):
        big = Dag("d", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], diamond)
        small = Dag("d", [("a", "b"), ("b", "d")], diamond)
        assert big.contains_dag(small)
        assert not small.contains_dag(big)

    def test_contains_dag_different_roots(self, diamond):
        dag1 = Dag("d", [("a", "b"), ("b", "d")], diamond)
        dag2 = Dag("a", [("b", "a")], diamond)
        assert not dag1.contains_dag(dag2)

    def test_in_neighbors(self, diamond):
        dag = Dag("d", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], diamond)
        assert set(dag.in_neighbors("d")) == {"b", "c"}
        assert dag.in_neighbors("a") == []

    def test_iteration_yields_edges(self, diamond):
        edges = [("a", "b"), ("b", "d")]
        dag = Dag("d", edges, diamond)
        assert list(dag) == edges

    def test_nodes_includes_root(self, diamond):
        dag = Dag("d", [("a", "b"), ("b", "d")], diamond)
        assert set(dag.nodes()) == {"a", "b", "d"}
