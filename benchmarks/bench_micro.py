"""Micro-benchmarks for the substrate layers (real repeated timing).

Unlike the experiment benches these run many rounds: they time the
building blocks whose speed bounds how far the paper-scale grids can go
— the min-congestion LP, the slave-LP sweep, the OSPF convergence, and
flow propagation.
"""

from repro.core.dag_builder import reverse_capacity_dags
from repro.demands.gravity import gravity_matrix
from repro.demands.uncertainty import margin_box
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import unit_weights
from repro.lp.mcf import min_congestion
from repro.lp.model import ReusableLP
from repro.lp.backend import set_lp_threads
from repro.lp.worst_case import CUTS_PER_ROUND, WorstCaseOracle
from repro.ospf.domain import OspfDomain
from repro.topologies.zoo import load_topology


def test_min_congestion_lp(benchmark):
    network = load_topology("geant")
    demand = gravity_matrix(network)
    result = benchmark(min_congestion, network, demand)
    assert result.alpha > 0


def test_slave_lp_sweep(benchmark, monkeypatch):
    network = load_topology("abilene")
    base = gravity_matrix(network)
    dags, weights = reverse_capacity_dags(network)
    ecmp = ecmp_routing(network, weights)
    cone = margin_box(base, 2.0)
    solves = []
    solve = ReusableLP.solve

    def counted(self, *args, **kwargs):
        solves.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(ReusableLP, "solve", counted)
    results, timed = [], []

    def fresh_oracle():
        # An oracle memoizes its per-edge results, so every round scores
        # ECMP on a new one; otherwise later rounds would time memo hits.
        return (WorstCaseOracle(network, cone, dags=dags), ecmp), {}

    def evaluate(oracle, routing):
        start = len(solves)
        results.append(oracle.evaluate(routing))
        timed.append(len(solves) - start)
        return results[-1]

    result = benchmark.pedantic(evaluate, setup=fresh_oracle, rounds=5)
    assert result.ratio >= 1.0
    # Every timed round solves at least the top findings, and since the
    # pruned sweep's result is the same at any thread count, returns the
    # first round's.
    assert min(timed) >= CUTS_PER_ROUND, timed
    first = results[0]
    for other in results[1:]:
        assert (other.ratio, other.edge, other.cuts, other.per_edge) == (
            first.ratio,
            first.edge,
            first.cuts,
            first.per_edge,
        )
    # Which edges threads skip depends on timing; a serial sweep on an
    # empty memo repeats its solve count exactly.
    set_lp_threads(1)
    try:
        per_round = []
        for _ in range(3):
            start = len(solves)
            WorstCaseOracle(network, cone, dags=dags).evaluate(ecmp)
            per_round.append(len(solves) - start)
    finally:
        set_lp_threads(None)
    assert per_round[0] >= CUTS_PER_ROUND and len(set(per_round)) == 1, per_round


def test_ospf_convergence(benchmark):
    network = load_topology("geant")
    weights = unit_weights(network)

    def converge():
        domain = OspfDomain(network, weights)
        domain.advertise_loopbacks()
        domain.flood()
        return domain.extract_routing()

    routing = benchmark(converge)
    assert len(routing.dags) == network.num_nodes


def test_flow_propagation(benchmark):
    network = load_topology("geant")
    weights = unit_weights(network)
    routing = ecmp_routing(network, weights)
    demand = gravity_matrix(network)
    loads = benchmark(routing.link_loads, demand)
    assert loads
