"""Traditional TE with ECMP (Section II).

ECMP splits traffic *equally* among the next hops on shortest paths to
the destination.  The splitting ratios are therefore fully determined by
the link weights: build the shortest-path DAG per destination and give
every out-edge of a node the same fraction.
"""

from __future__ import annotations

from typing import Mapping

from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.kernel.spf import shortest_path_dags
from repro.routing.splitting import Routing, uniform_ratios


def ecmp_dags(
    network: Network,
    weights: Mapping[Edge, float],
    destinations: list[Node] | None = None,
) -> dict[Node, Dag]:
    """Shortest-path DAG per destination for the given weights.

    One batched all-destination SPF on the kernel; the per-destination
    :func:`~repro.graph.paths.shortest_path_dag` is its test oracle
    (identical DAG edge sets; see the differential suite).  If the
    extraction semantics here ever change, bump ``CACHE_VERSION`` in
    :mod:`repro.runner.spec`.
    """
    return shortest_path_dags(network, weights, destinations)


def ecmp_routing(
    network: Network,
    weights: Mapping[Edge, float],
    destinations: list[Node] | None = None,
    name: str = "ECMP",
) -> Routing:
    """The full ECMP routing configuration (DAGs + equal splitting)."""
    dags = ecmp_dags(network, weights, destinations)
    ratios = {t: uniform_ratios(dag) for t, dag in dags.items()}
    return Routing(dags, ratios, name=name)
