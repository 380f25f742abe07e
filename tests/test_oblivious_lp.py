"""Tests for unconstrained (Applegate-Cohen) oblivious routing."""

import pytest

from repro.config import SolverConfig
from repro.demands.uncertainty import oblivious_pairs, oblivious_set
from repro.exceptions import SolverError
from repro.lp.oblivious_lp import (
    exact_unconstrained_oblivious,
    optimize_unconstrained_oblivious,
)
from repro.topologies.generators import path_sink_network, ring_network

FAST = SolverConfig(max_adversarial_rounds=6, max_inner_iterations=10)


class TestUnconstrainedOblivious:
    def test_ring_is_easy(self):
        """On a symmetric ring the oblivious ratio is small and certified."""
        net = ring_network(5)
        result = optimize_unconstrained_oblivious(net, config=FAST)
        assert result.ratio >= 1.0 - 1e-6
        assert result.ratio <= 2.5
        assert result.rounds >= 1

    def test_flows_are_unit_flows(self):
        net = ring_network(4)
        result = optimize_unconstrained_oblivious(net, config=FAST)
        # Each pair's flow delivers exactly one unit into the target.
        for (s, t), flow in list(result.flows.items())[:4]:
            into_t = sum(v for (u, x), v in flow.items() if x == t)
            out_t = sum(v for (u, x), v in flow.items() if u == t)
            assert into_t - out_t == pytest.approx(1.0, abs=1e-6)

    def test_beats_destination_based_on_theorem4_instance(self):
        """The Theorem 4 separation: unconstrained oblivious routing is
        dramatically better than any destination-based one."""
        n = 5
        net = path_sink_network(n)
        pairs = [(f"x{i}", "t") for i in range(1, n + 1)]
        result = optimize_unconstrained_oblivious(
            net, oblivious_pairs(pairs), config=FAST
        )
        # Destination-based routing is pinned at ratio n (Theorem 4);
        # source-based splitting spreads each spike over the whole path.
        assert result.ratio < n - 1

    def test_history_bounds_consistent(self):
        net = ring_network(4)
        result = optimize_unconstrained_oblivious(net, config=FAST)
        for master, oracle in result.history:
            assert master <= oracle + 1e-6

    def test_stop_reason_matches_the_history(self):
        """A solve that did not converge says so."""
        result = optimize_unconstrained_oblivious(ring_network(4), config=FAST)
        assert len(result.history) == result.rounds
        master, oracle = result.history[-1]
        converged = oracle <= master * (1.0 + FAST.ratio_tolerance)
        assert (result.stop == "converged") == converged
        # Six rounds are not enough on ring4: the cap ends the loop.
        assert result.stop == "round-cap"
        assert result.rounds == FAST.max_adversarial_rounds

    @pytest.mark.slow
    def test_abilene_close_to_literature(self, abilene):
        """Applegate-Cohen report oblivious ratios around 2 on ISP maps;
        the exact dual LP lands below destination-based ECMP's oblivious
        ratio of 3.0, the cutting-plane master bound agrees from below,
        and the certified ratio of the loop's routing, feasible for the
        exact LP, cannot beat its optimum."""
        exact = exact_unconstrained_oblivious(abilene)
        assert exact.ratio < 3.0
        deep = SolverConfig(max_adversarial_rounds=8, max_inner_iterations=10)
        bound = optimize_unconstrained_oblivious(
            abilene, oblivious_set(abilene.nodes()), config=deep
        )
        master_bound = bound.history[-1][0]
        assert master_bound <= exact.ratio + 1e-3
        assert bound.ratio >= exact.ratio - 1e-9
        assert bound.stop in ("converged", "cycling", "round-cap")


class TestExactApplegateCohen:
    def test_ring_symmetric_optimum(self):
        net = ring_network(4)
        result = exact_unconstrained_oblivious(net)
        assert 1.0 - 1e-6 <= result.ratio <= 2.0

    def test_theorem4_instance_beats_destination_based(self):
        n = 4
        net = path_sink_network(n)
        pairs = [(f"x{i}", "t") for i in range(1, n + 1)]
        result = exact_unconstrained_oblivious(net, pairs)
        assert result.ratio < n - 1  # Theorem 4 pins destination-based at n

    def test_flows_route_units(self):
        net = ring_network(4)
        result = exact_unconstrained_oblivious(net)
        for (s, t), per_pair in list(result.flows.items())[:4]:
            into_t = sum(v for (u, x), v in per_pair.items() if x == t)
            assert into_t == pytest.approx(1.0, abs=1e-6)

    def test_a_pair_it_cannot_route_is_rejected(self):
        """A source with no usable edge gets no conservation row, so the
        LP would certify a ratio for an empty flow; it raises instead."""
        net = ring_network(4)
        net.add_node("z")
        net.add_edge("n0", "z", 1.0)  # z has an in-edge only
        with pytest.raises(SolverError, match="no usable edges"):
            exact_unconstrained_oblivious(net, [("z", "n2"), ("n0", "n2")])
