"""Vectorized load coefficients and link loads for arbitrary routings.

The worst-case oracle's objective assembly needs, for every demand pair
``(s, t)``, the fraction of the pair's traffic each edge carries:
``f_st(u) * phi_t(u, v)``.  The reference computes this one source at a
time (one dict-based propagation per pair); here *all* destinations and
all of their sources propagate together through one
:class:`~repro.kernel.propagate.LevelSchedule` — destinations are disjoint
state rows, sources are batch columns — so the per-destination and
per-source Python overhead collapses into a handful of array ops.

These helpers accept plain :class:`~repro.graph.dag.Dag` objects and ratio
dicts (the shapes :class:`~repro.routing.splitting.Routing` stores), so they
serve shortest-path *and* augmented DAGs alike.  Results are read back in
DAG order (:func:`~repro.kernel.propagate.topological_edge_ids`), so the
coefficient dict's per-edge pair order is the caller's, not the schedule's.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.demands.matrix import DemandMatrix
from repro.exceptions import RoutingError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.kernel.csr import CsrIndex, csr_index
from repro.kernel.propagate import LevelSchedule, topological_edge_ids


def _phi_values(
    index: CsrIndex, edge_ids: np.ndarray, ratios: Mapping[Edge, float]
) -> np.ndarray:
    edges = index.edges
    return np.fromiter(
        (ratios.get(edges[e], 0.0) for e in edge_ids.tolist()),
        dtype=np.float64,
        count=edge_ids.size,
    )


def _schedule(
    index: CsrIndex,
    targets: Sequence[Node],
    dags: Mapping[Node, Dag],
    ratios_by_destination: Mapping[Node, Mapping[Edge, float]],
) -> tuple[LevelSchedule, np.ndarray, np.ndarray, np.ndarray]:
    """One schedule over the DAGs of ``targets`` (non-empty), plus its
    caller-order instances.

    Returns ``(schedule, rows, edges, phi)``: row ``r`` is ``targets[r]``,
    and ``rows``/``edges``/``phi`` list the instances in DAG order.
    """
    parts = [topological_edge_ids(index, dags[t]) for t in targets]
    rows = np.repeat(np.arange(len(targets), dtype=np.int64), [part.size for part in parts])
    edges = np.concatenate(parts)
    phi = np.concatenate(
        [
            _phi_values(index, part, ratios_by_destination.get(t, {}))
            for t, part in zip(targets, parts)
        ]
    )
    return LevelSchedule(index, rows, edges), rows, edges, phi


def link_loads(
    network: Network,
    dags: Mapping[Node, Dag],
    ratios_by_destination: Mapping[Node, Mapping[Edge, float]],
    demand: DemandMatrix,
) -> dict[Edge, float]:
    """Total flow per edge for one demand matrix (one combined sweep).

    Vectorized equivalent of summing
    :func:`repro.routing.propagation.propagate_to_destination` edge flows
    over every destination; only edges with nonzero flow appear, keyed in
    network edge order.
    """
    index = csr_index(network)
    targets = sorted(demand.targets(), key=str)
    if not targets:
        return {}
    target_row = {t: row for row, t in enumerate(targets)}
    num_nodes = index.num_nodes
    arrivals = np.zeros((len(targets) * num_nodes, 1))
    for (s, t), volume in demand.items():
        dag = dags.get(t)
        if dag is None:
            raise RoutingError(f"no DAG for destination {t!r}")
        if volume > 0 and not dag.has_node(s):
            raise RoutingError(
                f"demand source {s!r} is not part of the DAG rooted at {dag.root!r}"
            )
        arrivals[target_row[t] * num_nodes + index.node_id[s], 0] += volume
    schedule, _rows, _edges, phi = _schedule(index, targets, dags, ratios_by_destination)
    flows = schedule.forward(phi[schedule.order], arrivals)
    loads = np.zeros((len(targets), index.num_edges))
    loads[schedule.row, schedule.edge] = flows[:, 0]
    totals = loads.sum(axis=0)
    return {index.edges[int(e)]: float(totals[e]) for e in np.flatnonzero(totals != 0.0)}


def load_coefficients(
    dags: Mapping[Node, Dag],
    ratios_by_destination: Mapping[Node, Mapping[Edge, float]],
    pairs: Sequence[tuple[Node, Node]],
) -> dict[Edge, dict[tuple[Node, Node], float]]:
    """Per-edge linear load coefficients over demand pairs, batched.

    Same contract as the reference
    :func:`repro.routing.propagation.load_coefficients` — one entry per
    (edge, pair) with a nonzero fraction-times-ratio product — but every
    destination's sources propagate in one combined sweep (sources are
    batch columns, padded to the widest destination).
    """
    by_destination: dict[Node, list[Node]] = {}
    for s, t in pairs:
        by_destination.setdefault(t, []).append(s)
    targets = [t for t in by_destination if dags.get(t) is not None]
    missing = [t for t in by_destination if dags.get(t) is None]
    if missing:
        raise RoutingError(f"no DAG for destination {missing[0]!r}")
    sources_of = {
        t: [s for s in by_destination[t] if dags[t].has_node(s)] for t in targets
    }
    targets = [t for t in targets if sources_of[t]]
    if not targets:
        return {}
    index = csr_index(dags[targets[0]].network)
    num_nodes = index.num_nodes
    width = max(len(sources_of[t]) for t in targets)
    arrivals = np.zeros((len(targets) * num_nodes, width))
    for row, t in enumerate(targets):
        for col, s in enumerate(sources_of[t]):
            arrivals[row * num_nodes + index.node_id[s], col] = 1.0
    schedule, rows, edges, phi = _schedule(index, targets, dags, ratios_by_destination)
    schedule.forward(phi[schedule.order], arrivals)

    coefficients: dict[Edge, dict[tuple[Node, Node], float]] = {}
    live = phi != 0.0
    live_rows, live_edges = rows[live], edges[live]
    live_phi = phi[live]
    # coefficient[(row, col), e] = f_st(tail[e]) * phi_t(e); keep the
    # reference's sparsity (fraction != 0 and ratio != 0).
    fractions = arrivals[live_rows * num_nodes + index.tail[live_edges]]  # (K, width)
    values = fractions * live_phi[:, np.newaxis]
    instance_idx, source_col = np.nonzero(fractions)
    edge_labels = index.edges
    for k, col in zip(instance_idx.tolist(), source_col.tolist()):
        row = int(live_rows[k])
        t = targets[row]
        if col >= len(sources_of[t]):
            continue  # padding column of a narrower destination
        edge = edge_labels[int(live_edges[k])]
        coefficients.setdefault(edge, {})[(sources_of[t][col], t)] = float(values[k, col])
    return coefficients
