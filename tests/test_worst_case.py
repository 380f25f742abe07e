"""Tests for the adversarial slave LP and the Theorem 5 certificate."""

import pytest

from repro.demands.matrix import DemandMatrix
from repro.demands.uncertainty import margin_box, oblivious_pairs
from repro.lp.theorem5 import certified_ratios
from repro.lp.worst_case import (
    WorstCaseOracle,
    evaluate_on_matrices,
    evaluate_reference,
    normalize_to_unit_optimum,
)
from repro.experiments.running_example import fig1b_routing, fig1c_routing, example_dag


@pytest.fixture
def example_setup(running_example):
    dag = example_dag(running_example)
    users = oblivious_pairs([("s1", "t"), ("s2", "t")])
    oracle = WorstCaseOracle(running_example, users, dags={"t": dag})
    return running_example, dag, oracle


class TestOracle:
    def test_fig1b_ratio_is_three_halves(self, example_setup):
        net, _dag, oracle = example_setup
        result = oracle.evaluate(fig1b_routing(net))
        assert result.ratio == pytest.approx(1.5, abs=1e-6)

    def test_fig1c_ratio_is_four_thirds(self, example_setup):
        net, _dag, oracle = example_setup
        result = oracle.evaluate(fig1c_routing(net))
        assert result.ratio == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_worst_demand_is_in_cone(self, example_setup):
        net, _dag, oracle = example_setup
        result = oracle.evaluate(fig1b_routing(net))
        assert result.demand is not None
        assert oracle.uncertainty.contains_direction(result.demand)

    def test_worst_demand_attains_ratio(self, example_setup):
        # Re-routing the oracle's demand must reproduce its utilization
        # after normalizing to the within-DAG optimum.
        net, dag, oracle = example_setup
        routing = fig1b_routing(net)
        result = oracle.evaluate(routing)
        normalized = normalize_to_unit_optimum(net, result.demand, dags={"t": dag})
        mlu = routing.max_link_utilization(normalized, net)
        assert mlu == pytest.approx(result.ratio, rel=1e-6)

    def test_margin_one_matches_direct_computation(self, example_setup):
        net, dag, _ = example_setup
        base = DemandMatrix({("s1", "t"): 1.0, ("s2", "t"): 1.0})
        box = margin_box(base, 1.0)
        oracle = WorstCaseOracle(net, box, dags={"t": dag})
        routing = fig1b_routing(net)
        expected = evaluate_on_matrices(net, {"t": dag}, routing, [base])
        assert oracle.evaluate(routing).ratio == pytest.approx(expected, rel=1e-6)

    def test_margin_monotonicity(self, example_setup):
        # Wider margins can only worsen the worst case.
        net, dag, _ = example_setup
        base = DemandMatrix({("s1", "t"): 1.0, ("s2", "t"): 1.0})
        routing = fig1b_routing(net)
        ratios = []
        for margin in (1.0, 1.5, 2.0, 4.0):
            oracle = WorstCaseOracle(net, margin_box(base, margin), dags={"t": dag})
            ratios.append(oracle.evaluate(routing).ratio)
        assert all(a <= b + 1e-9 for a, b in zip(ratios, ratios[1:]))

    def test_oblivious_dominates_margins(self, example_setup):
        net, dag, oracle = example_setup
        base = DemandMatrix({("s1", "t"): 1.0, ("s2", "t"): 1.0})
        routing = fig1b_routing(net)
        oblivious_ratio = oracle.evaluate(routing).ratio
        boxed = WorstCaseOracle(net, margin_box(base, 3.0), dags={"t": dag})
        assert boxed.evaluate(routing).ratio <= oblivious_ratio + 1e-9

    def test_cuts_are_distinct(self, example_setup):
        net, _dag, oracle = example_setup
        result = oracle.evaluate(fig1b_routing(net))
        for i, a in enumerate(result.cuts):
            for b in result.cuts[i + 1:]:
                assert not a.close_to(b, tolerance=1e-9)

    def test_network_witness_uses_global_optimum(self, running_example):
        # Within-DAG normalization can only make ratios larger or equal.
        dag = example_dag(running_example)
        users = oblivious_pairs([("s1", "t"), ("s2", "t")])
        routing = fig1b_routing(running_example)
        dag_oracle = WorstCaseOracle(running_example, users, dags={"t": dag})
        net_oracle = WorstCaseOracle(running_example, users, dags=None)
        assert (
            net_oracle.evaluate(routing).ratio
            <= dag_oracle.evaluate(routing).ratio + 1e-9
        )


class TestNormalization:
    def test_normalize_to_unit_optimum(self, running_example):
        dag = example_dag(running_example)
        dm = DemandMatrix({("s1", "t"): 10.0})
        normalized = normalize_to_unit_optimum(running_example, dm, dags={"t": dag})
        from repro.lp.mcf import min_congestion

        assert min_congestion(
            running_example, normalized, dags={"t": dag}
        ).alpha == pytest.approx(1.0)


USER_PAIRS = [("s1", "t"), ("s2", "t")]


class TestCertificate:
    def test_certificate_matches_slave_lp(self, example_setup):
        """Strong duality: Theorem 5's best certificate equals the primal."""
        net, dag, oracle = example_setup
        for routing in (fig1b_routing(net), fig1c_routing(net)):
            primal = oracle.evaluate(routing).ratio
            dual = certified_ratios(
                net, {"t": dag}, oracle.uncertainty, routing.load_coefficients(USER_PAIRS)
            )
            assert max(dual.values()) == pytest.approx(primal, rel=1e-6)

    def test_per_edge_certificate_bounds_edge_utilization(self, example_setup):
        net, dag, oracle = example_setup
        routing = fig1c_routing(net)
        result = oracle.evaluate(routing)
        certified = certified_ratios(
            net, {"t": dag}, oracle.uncertainty, routing.load_coefficients(USER_PAIRS)
        )
        assert certified[("v", "t")] == pytest.approx(result.per_edge[("v", "t")], rel=1e-6)

    def test_all_pairs_certificate_dominates(self, example_setup):
        """The fully oblivious certificate covers more demands, so it is
        at least as large as the two-user one."""
        net, dag, oracle = example_setup
        routing = fig1b_routing(net)
        everyone = [(s, "t") for s in dag.nodes() if s != "t"]
        restricted = certified_ratios(
            net, {"t": dag}, oracle.uncertainty, routing.load_coefficients(USER_PAIRS)
        )
        full = certified_ratios(
            net, {"t": dag}, oblivious_pairs(everyone), routing.load_coefficients(everyone)
        )
        assert max(full.values()) >= max(restricted.values()) - 1e-9

    def test_margin_certificate_matches_slave_lp(self, example_setup):
        """In margin cones too, every loaded edge's certificate is its
        worst-case utilization."""
        net, dag, _ = example_setup
        base = DemandMatrix({("s1", "t"): 1.0, ("s2", "t"): 2.0})
        for margin in (1.0, 1.5, 3.0):
            oracle = WorstCaseOracle(net, margin_box(base, margin), dags={"t": dag})
            for routing in (fig1b_routing(net), fig1c_routing(net)):
                reference = evaluate_reference(oracle, routing)
                certified = certified_ratios(
                    net, {"t": dag}, oracle.uncertainty, routing.load_coefficients(USER_PAIRS)
                )
                for edge, utilization in reference.per_edge.items():
                    expected = pytest.approx(utilization, rel=1e-6, abs=1e-9)
                    assert certified.get(edge, 0.0) == expected
