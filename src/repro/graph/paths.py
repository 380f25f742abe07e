"""Shortest paths toward a destination, ECMP DAG extraction, reachability.

OSPF computes, at every router, the shortest paths *to* each destination;
accordingly every routine here works on distances to a target (Dijkstra
over reversed edges).  Ties are what make ECMP interesting: an edge
``(u, v)`` is on a shortest path to ``t`` exactly when
``dist(u) == w(u, v) + dist(v)``, and the set of such edges forms the
shortest-path DAG rooted at ``t``.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping

from repro.exceptions import GraphError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node

#: Relative tolerance when comparing path costs for ECMP tie detection.
#: Integer OSPF costs compare exactly; float weights need a little slack.
_TIE_RTOL = 1e-12


def dijkstra_to_target(
    network: Network,
    weights: Mapping[Edge, float],
    target: Node,
) -> dict[Node, float]:
    """Distance from every node to ``target`` under the given edge weights.

    Nodes that cannot reach the target get distance ``math.inf``.

    Raises:
        GraphError: if any network edge is missing from ``weights`` or has
            a non-positive weight (OSPF costs are >= 1; zero or negative
            weights would break shortest-path DAG acyclicity).
    """
    if not network.has_node(target):
        raise GraphError(f"unknown target {target!r}")
    for edge in network.edges():
        weight = weights.get(edge)
        if weight is None:
            raise GraphError(f"missing weight for edge {edge!r}")
        if not (weight > 0):
            raise GraphError(f"weight of {edge!r} must be > 0, got {weight}")
    dist = {node: math.inf for node in network.nodes()}
    dist[target] = 0.0
    heap: list[tuple[float, int, Node]] = [(0.0, 0, target)]
    counter = 1
    done: set[Node] = set()
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        # Relax *incoming* edges: we search backwards from the target.
        for pred in network.predecessors(node):
            candidate = d + weights[(pred, node)]
            if candidate < dist[pred]:
                dist[pred] = candidate
                heapq.heappush(heap, (candidate, counter, pred))
                counter += 1
    return dist


def shortest_path_dag(
    network: Network,
    weights: Mapping[Edge, float],
    target: Node,
    distances: Mapping[Node, float] | None = None,
) -> Dag:
    """The ECMP shortest-path DAG rooted at ``target``.

    Contains edge ``(u, v)`` iff it lies on some shortest path from ``u``
    to ``target``.  Only nodes that can reach the target appear.

    Args:
        distances: precomputed node-to-target distances under the same
            ``weights`` (callers that already ran Dijkstra thread them
            through instead of paying a second search).
    """
    dist = distances if distances is not None else dijkstra_to_target(network, weights, target)
    edges: list[Edge] = []
    for u, v in network.edges():
        if u == target:
            continue
        du, dv = dist[u], dist[v]
        if math.isinf(du) or math.isinf(dv):
            continue
        through = weights[(u, v)] + dv
        if math.isclose(du, through, rel_tol=_TIE_RTOL, abs_tol=0.0):
            edges.append((u, v))
    return Dag(target, edges, network)


def hop_distances_to_target(network: Network, target: Node) -> dict[Node, float]:
    """Hop-count distance (BFS) from every node to ``target``.

    Used by DAG augmentation's "closer to the destination" rule and by
    the path-stretch metric of Fig. 11 (stretch is measured in hops).
    """
    unit = {edge: 1.0 for edge in network.edges()}
    return dijkstra_to_target(network, unit, target)


def reachable_to(network: Network, target: Node) -> set[Node]:
    """Nodes with at least one directed path to ``target``."""
    dist = hop_distances_to_target(network, target)
    return {node for node, d in dist.items() if math.isfinite(d)}


def expected_path_lengths(dag: Dag, ratios: Mapping[Edge, float]) -> dict[Node, float]:
    """Expected hop count from each DAG node to the root under the ratios.

    With splitting ratios ``phi`` the expected path length satisfies
    ``H(u) = sum_v phi(u, v) * (1 + H(v))`` and ``H(root) = 0``.  This is
    the quantity averaged in Fig. 11 (average stretch).
    """
    lengths: dict[Node, float] = {dag.root: 0.0}
    for node in reversed(dag.topological_order()):
        if node == dag.root:
            continue
        total = 0.0
        for head in dag.out_neighbors(node):
            total += ratios.get((node, head), 0.0) * (1.0 + lengths[head])
        lengths[node] = total
    return lengths
