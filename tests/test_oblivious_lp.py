"""Tests for unconstrained (Applegate-Cohen) oblivious routing."""

import pytest

from repro.exceptions import SolverError
from repro.lp.theorem5 import exact_unconstrained_oblivious
from repro.topologies.generators import path_sink_network, ring_network


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

    @pytest.mark.slow
    def test_abilene_close_to_literature(self, abilene):
        """Applegate-Cohen report oblivious ratios around 2 on ISP maps;
        the exact dual LP lands at 1.8506, below destination-based ECMP's
        oblivious ratio of 3.0."""
        exact = exact_unconstrained_oblivious(abilene)
        assert exact.ratio == pytest.approx(1.8505747126436785, abs=1e-6)
