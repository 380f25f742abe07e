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
from repro.lp.worst_case import WorstCaseOracle
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
    starts = []

    def fresh_oracle():
        # An oracle memoizes its per-edge results, so every round scores
        # ECMP on a new one; otherwise later rounds would time memo hits.
        starts.append(len(solves))
        return (WorstCaseOracle(network, cone, dags=dags), ecmp), {}

    result = benchmark.pedantic(WorstCaseOracle.evaluate, setup=fresh_oracle, rounds=5)
    assert result.ratio >= 1.0
    per_round = [end - start for start, end in zip(starts, [*starts[1:], len(solves)])]
    assert per_round[0] > 0 and len(set(per_round)) == 1, per_round


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
