"""Vectorized load coefficients and link loads for arbitrary routings.

The worst-case oracle's objective assembly needs, for every demand pair
``(s, t)``, the fraction of the pair's traffic each edge carries:
``f_st(u) * phi_t(u, v)``.  The reference computes this one source at a
time (one dict-based propagation per pair); here *all* destinations and
all of their sources propagate together through one
:func:`~repro.kernel.propagate.grouped_sweep` — destinations are disjoint
state rows, sources are batch columns — so the per-destination and
per-source Python overhead collapses into a handful of array ops.

These helpers accept plain :class:`~repro.graph.dag.Dag` objects and ratio
dicts (the shapes :class:`~repro.routing.splitting.Routing` stores), so they
serve shortest-path *and* augmented DAGs alike.  The level key for a DAG
edge is its tail's position in the DAG's (already computed) topological
order — valid for any DAG, no extra Kahn pass.  Per-DAG index arrays are
cached weakly per Dag instance.
"""

from __future__ import annotations

import weakref
from typing import Mapping, Sequence

import numpy as np

from repro.demands.matrix import DemandMatrix
from repro.exceptions import RoutingError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.kernel.csr import CsrIndex, csr_index
from repro.kernel.propagate import grouped_sweep

#: Per-Dag array artifacts, keyed weakly so discarded DAGs (each
#: local-search round builds a fresh set) free theirs.
_DAG_ARRAYS: "weakref.WeakKeyDictionary[Dag, tuple]" = weakref.WeakKeyDictionary()


def _dag_arrays(index: CsrIndex, dag: Dag) -> tuple[np.ndarray, np.ndarray]:
    """(edge indices, per-edge level keys) for one DAG, cached.

    The level key is the tail's topological position: every DAG edge goes
    from an earlier to a strictly later position, so grouping instances
    by ascending key is a valid propagation schedule.
    """
    cached = _DAG_ARRAYS.get(dag)
    if cached is None or cached[0] is not index:
        position = {node: i for i, node in enumerate(dag.topological_order())}
        count = dag.num_edges
        edge_ids = np.fromiter(
            (index.edge_id[edge] for edge in dag.edges()), dtype=np.int64, count=count
        )
        levels = np.fromiter(
            (position[tail] for tail, _head in dag.edges()), dtype=np.int64, count=count
        )
        cached = (index, edge_ids, levels)
        _DAG_ARRAYS[dag] = cached
    return cached[1], cached[2]


def _phi_values(
    index: CsrIndex, edge_ids: np.ndarray, ratios: Mapping[Edge, float]
) -> np.ndarray:
    edges = index.edges
    return np.fromiter(
        (ratios.get(edges[e], 0.0) for e in edge_ids.tolist()),
        dtype=np.float64,
        count=edge_ids.size,
    )


def _combined_instances(
    index: CsrIndex,
    targets: Sequence[Node],
    dags: Mapping[Node, Dag],
    ratios_by_destination: Mapping[Node, Mapping[Edge, float]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stack every target DAG's (row, edge, level, phi) instance arrays."""
    rows_parts, edge_parts, level_parts, phi_parts = [], [], [], []
    for row, t in enumerate(targets):
        edge_ids, levels = _dag_arrays(index, dags[t])
        rows_parts.append(np.full(edge_ids.size, row, dtype=np.int64))
        edge_parts.append(edge_ids)
        level_parts.append(levels)
        phi_parts.append(_phi_values(index, edge_ids, ratios_by_destination.get(t, {})))
    if not rows_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, np.empty(0, dtype=np.float64)
    return (
        np.concatenate(rows_parts),
        np.concatenate(edge_parts),
        np.concatenate(level_parts),
        np.concatenate(phi_parts),
    )


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
    target_row = {t: row for row, t in enumerate(targets)}
    demands = np.zeros((len(targets), 1, index.num_nodes))
    for (s, t), volume in demand.items():
        dag = dags.get(t)
        if dag is None:
            raise RoutingError(f"no DAG for destination {t!r}")
        if volume > 0 and not dag.has_node(s):
            raise RoutingError(
                f"demand source {s!r} is not part of the DAG rooted at {dag.root!r}"
            )
        demands[target_row[t], 0, index.node_id[s]] += volume
    rows, edges, levels, phi = _combined_instances(
        index, targets, dags, ratios_by_destination
    )
    _arrivals, flows = grouped_sweep(index, rows, edges, levels, phi, demands)
    totals = flows[:, 0, :].sum(axis=0)
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
    width = max(len(sources_of[t]) for t in targets)
    unit = np.zeros((len(targets), width, index.num_nodes))
    for row, t in enumerate(targets):
        for col, s in enumerate(sources_of[t]):
            unit[row, col, index.node_id[s]] = 1.0
    rows, edges, levels, phi = _combined_instances(
        index, targets, dags, ratios_by_destination
    )
    arrivals, _flows = grouped_sweep(index, rows, edges, levels, phi, unit)

    coefficients: dict[Edge, dict[tuple[Node, Node], float]] = {}
    live = phi != 0.0
    live_rows, live_edges = rows[live], edges[live]
    live_phi = phi[live]
    # coefficient[(row, col), e] = f_st(tail[e]) * phi_t(e); keep the
    # reference's sparsity (fraction != 0 and ratio != 0).
    fractions = arrivals[live_rows, :, index.tail[live_edges]]  # (K, width)
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
