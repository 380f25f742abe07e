"""Ablation: the price of destination-based forwarding (Theorem 4).

Compares unconstrained (Applegate-Cohen, source+destination) oblivious
routing against the destination-based lower bound on the Theorem 4 path
instance: destination-based routing is pinned at ratio n, while
unconstrained routing spreads each spike over the whole path.
"""

from conftest import run_once

from repro.demands.uncertainty import oblivious_pairs
from repro.experiments.hardness import direct_link_routing
from repro.lp.theorem5 import exact_unconstrained_oblivious
from repro.lp.worst_case import WorstCaseOracle
from repro.topologies.generators import path_sink_network
from repro.utils.tables import Table


def oblivious_gap(length: int = 5) -> Table:
    network = path_sink_network(length)
    pairs = [(f"x{i}", "t") for i in range(1, length + 1)]
    uncertainty = oblivious_pairs(pairs)
    destination_based = WorstCaseOracle(network, uncertainty, dags=None).evaluate(
        direct_link_routing(length)
    )
    unconstrained = exact_unconstrained_oblivious(network, pairs)
    table = Table(
        f"Ablation — destination-based vs unconstrained oblivious (n={length})",
        ["routing class", "oblivious ratio"],
    )
    table.add_row("destination-based (Theorem 4 bound)", destination_based.ratio)
    table.add_row("unconstrained (Applegate-Cohen)", unconstrained.ratio)
    return table


def test_oblivious_gap(benchmark, experiment_config):
    table = run_once(benchmark, oblivious_gap)
    dest, unconstrained = (row[1] for row in table.rows)
    assert dest > unconstrained + 0.5  # the separation is real
    print()
    print(table)
