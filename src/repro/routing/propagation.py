"""Flow propagation through per-destination DAGs (Section III).

Given splitting ratios ``phi_t`` on a DAG rooted at ``t``:

* the *fraction* of the demand ``s -> t`` reaching node ``v`` is
  ``f_st(v) = sum_{(u,v)} f_st(u) * phi_t(u, v)`` with ``f_st(s) = 1``;
* the *aggregate* flow to ``t`` arriving at ``v`` given per-source
  demands ``d_vt`` is ``F_t(v) = d_vt + sum_{(u,v)} F_t(u) * phi_t(u, v)``.

Both recursions resolve in one pass over the DAG's topological order.
The per-pair fractions feed the slave LP's objective coefficients
(``d_st * f_st(u) * phi_t(e)`` is the contribution of pair ``(s, t)`` to
the load on ``e``); the aggregate form is what the fast evaluation and
the splitting optimizers use.
"""

from __future__ import annotations

from typing import Mapping

from repro.exceptions import RoutingError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Node

Ratios = Mapping[Edge, float]


def propagate_to_destination(
    dag: Dag,
    ratios: Ratios,
    demands_to_t: Mapping[Node, float],
) -> tuple[dict[Node, float], dict[Edge, float]]:
    """Aggregate node arrivals and edge flows for one destination.

    Args:
        dag: the forwarding DAG rooted at the destination.
        ratios: phi_t, keyed by DAG edge.
        demands_to_t: source node -> demand volume toward the root.

    Returns:
        ``(arrivals, edge_flows)`` where ``arrivals[v]`` is the total flow
        to the root arriving at (or originating in) ``v`` and
        ``edge_flows[(u, v)]`` the flow placed on each DAG edge.

    Raises:
        RoutingError: when a demand originates at a node outside the DAG.
    """
    for source, volume in demands_to_t.items():
        if volume > 0 and not dag.has_node(source):
            raise RoutingError(
                f"demand source {source!r} is not part of the DAG rooted at {dag.root!r}"
            )
    arrivals: dict[Node, float] = {}
    edge_flows: dict[Edge, float] = {}
    for node in dag.topological_order():
        incoming = arrivals.get(node, 0.0) + demands_to_t.get(node, 0.0)
        arrivals[node] = incoming
        if node == dag.root or incoming == 0.0:
            continue
        for head in dag.out_neighbors(node):
            share = incoming * ratios.get((node, head), 0.0)
            if share == 0.0:
                continue
            edge_flows[(node, head)] = edge_flows.get((node, head), 0.0) + share
            arrivals[head] = arrivals.get(head, 0.0) + share
    return arrivals, edge_flows


def source_fractions(dag: Dag, ratios: Ratios, source: Node) -> dict[Node, float]:
    """``f_st(v)`` for one (source, destination) pair: fractions per node."""
    arrivals, _ = propagate_to_destination(dag, ratios, {source: 1.0})
    return arrivals


def load_coefficients(
    dags: Mapping[Node, Dag],
    ratios_by_destination: Mapping[Node, Ratios],
    pairs: list[tuple[Node, Node]],
) -> dict[Edge, dict[tuple[Node, Node], float]]:
    """Per-edge linear coefficients of the load as a function of demands.

    ``result[e][(s, t)] = f_st(u) * phi_t(e)`` so that the load on ``e``
    under a demand matrix ``D`` is ``sum_(s,t) d_st * result[e][(s, t)]``.
    This is exactly the objective of the slave LP (Appendix C, eq. 10).

    Pairs whose source cannot appear in the destination's DAG are skipped
    (they can never contribute load), mirroring the LP which simply has a
    zero column for them.

    Runs on the vectorized assembly in :mod:`repro.kernel.coefficients`,
    which batches all of a destination's sources into one level sweep;
    :func:`load_coefficients_reference` is its test oracle.  Semantics
    changes here invalidate cached sweep results — bump
    ``CACHE_VERSION`` in :mod:`repro.runner.spec`.
    """
    from repro.kernel.coefficients import load_coefficients as kernel_coefficients

    return kernel_coefficients(dags, ratios_by_destination, pairs)


def load_coefficients_reference(
    dags: Mapping[Node, Dag],
    ratios_by_destination: Mapping[Node, Ratios],
    pairs: list[tuple[Node, Node]],
) -> dict[Edge, dict[tuple[Node, Node], float]]:
    """Pure-Python coefficient assembly (the kernel's test oracle)."""
    coefficients: dict[Edge, dict[tuple[Node, Node], float]] = {}
    by_destination: dict[Node, list[Node]] = {}
    for s, t in pairs:
        by_destination.setdefault(t, []).append(s)
    for t, sources in by_destination.items():
        dag = dags.get(t)
        if dag is None:
            raise RoutingError(f"no DAG for destination {t!r}")
        ratios = ratios_by_destination.get(t, {})
        for s in sources:
            if not dag.has_node(s):
                continue
            fractions = source_fractions(dag, ratios, s)
            for u, fraction in fractions.items():
                if fraction == 0.0 or u == dag.root:
                    continue
                for v in dag.out_neighbors(u):
                    phi = ratios.get((u, v), 0.0)
                    if phi == 0.0:
                        continue
                    coefficients.setdefault((u, v), {})[(s, t)] = fraction * phi
    return coefficients
