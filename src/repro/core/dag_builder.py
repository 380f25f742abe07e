"""DAG construction (Section V-B): shortest-path DAGs plus augmentation.

Step I builds a shortest-path DAG per destination from link weights
(either *reverse capacities* or the *local search* heuristic supplies the
weights).  Step II augments each DAG: every link absent from the DAG is
oriented toward the incident node that is closer to the destination,
breaking ties lexicographically.

Acyclicity of the augmented DAG follows from the orientation rule: every
shortest-path edge strictly decreases the (positive-weight) distance to
the destination, every augmented edge weakly decreases it, and
equal-distance augmented edges all point from lexicographically larger to
smaller labels — so no directed cycle can close.

The augmented DAG contains the shortest-path DAG by construction, which
is what guarantees COYOTE never does worse than ECMP on the optimized
objective (ECMP's splitting is a feasible point of the enlarged space).
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.ecmp.weights import inverse_capacity_weights
from repro.exceptions import GraphError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.kernel.spf import all_targets_spf


def augment_dag(
    network: Network,
    sp_dag: Dag,
    distances: Mapping[Node, float],
) -> Dag:
    """Step II: add every non-DAG link, oriented toward the destination.

    Args:
        network: the underlying capacitated digraph.
        sp_dag: the shortest-path DAG rooted at the destination.
        distances: weighted distance of every node to the destination
            (from the same weights used to build ``sp_dag``).

    Returns:
        A new DAG containing ``sp_dag`` plus the oriented extra links.
    """
    target = sp_dag.root
    edges = list(sp_dag.edges())
    seen_links = {frozenset(edge) for edge in edges}
    for u, v in network.edges():
        link = frozenset((u, v))
        if link in seen_links:
            continue
        seen_links.add(link)
        du, dv = distances.get(u, math.inf), distances.get(v, math.inf)
        if math.isinf(du) or math.isinf(dv):
            continue
        if du > dv:
            oriented = (u, v)
        elif dv > du:
            oriented = (v, u)
        else:
            # Equal distance: orient toward the lexicographically smaller
            # label ("suppose that the nodes are numbered").
            oriented = (u, v) if str(v) < str(u) else (v, u)
        tail, head = oriented
        if tail == target:
            continue  # the root never forwards
        if network.has_edge(tail, head):
            edges.append(oriented)
    return Dag(target, edges, network)


def build_dags(
    network: Network,
    weights: Mapping[Edge, float],
    destinations: list[Node] | None = None,
    augment: bool = True,
) -> dict[Node, Dag]:
    """Shortest-path DAGs for the given weights, optionally augmented.

    One batched all-destination CSR shortest-path call supplies every
    destination's DAG and distances.  Changing how DAGs are derived
    changes solver semantics — bump ``CACHE_VERSION`` in
    :mod:`repro.runner.spec` alongside.

    Raises:
        GraphError: when some node cannot reach a requested destination
            (the topology loaders guarantee strong connectivity, so this
            signals a malformed custom network).
    """
    targets = destinations if destinations is not None else network.nodes()
    state = all_targets_spf(network, weights)
    dags: dict[Node, Dag] = {}
    for t in targets:
        sp, distances = state.dag(t), state.distances(t)
        unreachable = [n for n, d in distances.items() if math.isinf(d)]
        if unreachable:
            raise GraphError(
                f"nodes {sorted(map(str, unreachable))} cannot reach destination {t!r}"
            )
        dags[t] = augment_dag(network, sp, distances) if augment else sp
    return dags


def reverse_capacity_dags(
    network: Network,
    destinations: list[Node] | None = None,
    augment: bool = True,
) -> tuple[dict[Node, Dag], dict[Edge, float]]:
    """The paper's default heuristic: inverse-capacity weights, then Steps I+II."""
    weights = inverse_capacity_weights(network)
    return build_dags(network, weights, destinations, augment=augment), weights
