"""Vectorized flow propagation: topological level sweeps on edge arrays.

The reference recursions (:mod:`repro.routing.propagation`) walk one DAG
node at a time with dict lookups.  Here a DAG is a set of edge indices plus
a *level schedule*: nodes grouped by longest-path depth from the DAG's
sources, so every edge goes from a lower level to a strictly higher one.
Propagation then processes one level of edges at a time with array ops —
``flow = arrivals[tails] * phi`` and a scattered add into the heads — and
vectorizes over any number of demand vectors (matrices, or one unit vector
per source for the oracle's fraction coefficients) simultaneously.

Levels are computed by a vectorized Kahn peel, which works for *any* DAG —
shortest-path or augmented — and detects cycles exactly like
:class:`repro.graph.dag.Dag` does (a malformed mask raises instead of
silently dropping flow).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import RoutingError
from repro.kernel.csr import CsrIndex


def edge_level_schedule(index: CsrIndex, edge_ids: np.ndarray) -> list[np.ndarray]:
    """Group DAG edges into topological levels (by tail node depth).

    Returns a list of edge-index arrays; processing them in order
    guarantees every node's arrivals are complete before any of its
    out-edges fire (a node's level is one past its deepest predecessor).

    Raises:
        RoutingError: when the edge set contains a directed cycle.
    """
    tails = index.tail[edge_ids]
    heads = index.head[edge_ids]
    indegree = np.zeros(index.num_nodes, dtype=np.int64)
    np.add.at(indegree, heads, 1)
    in_dag = np.zeros(index.num_nodes, dtype=bool)
    in_dag[tails] = True
    in_dag[heads] = True

    level = np.zeros(index.num_nodes, dtype=np.int64)
    frontier = np.flatnonzero(in_dag & (indegree == 0))
    current = 0
    settled = 0
    frontier_mask = np.zeros(index.num_nodes, dtype=bool)
    # Peel sources level by level; a node is released the round after its
    # last predecessor settles, so its level is its longest-path depth.
    while frontier.size:
        level[frontier] = current
        settled += frontier.size
        frontier_mask[:] = False
        frontier_mask[frontier] = True
        touched = heads[frontier_mask[tails]]
        np.subtract.at(indegree, touched, 1)
        frontier = np.unique(touched[indegree[touched] == 0])
        current += 1
    if settled != int(in_dag.sum()):
        raise RoutingError("edge set contains a directed cycle; not a DAG")

    edge_levels = level[tails]
    order = np.argsort(edge_levels, kind="stable")
    ordered = edge_ids[order]
    ordered_levels = edge_levels[order]
    boundaries = np.flatnonzero(np.diff(ordered_levels)) + 1
    return [chunk for chunk in np.split(ordered, boundaries) if chunk.size]


def sweep_flows(
    index: CsrIndex,
    schedule: list[np.ndarray],
    ratios: np.ndarray,
    demands: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate demand vectors through one DAG's level schedule.

    Args:
        index: the network's array view.
        schedule: edge levels from :func:`edge_level_schedule`.
        ratios: per-edge splitting fractions ``phi_t``, shape ``(E,)``.
        demands: originated volume per node, shape ``(M, N)`` — one row
            per demand vector (a matrix's column toward the destination,
            or a unit row per source for fraction coefficients).

    Returns:
        ``(arrivals, flows)`` with shapes ``(M, N)`` and ``(M, E)``:
        aggregate node arrivals and per-edge flows for every demand row.
    """
    arrivals = np.array(demands, dtype=np.float64, copy=True)
    flows = np.zeros((demands.shape[0], index.num_edges), dtype=np.float64)
    for edges in schedule:
        block = arrivals[:, index.tail[edges]] * ratios[np.newaxis, edges]
        flows[:, edges] = block
        np.add.at(arrivals, (slice(None), index.head[edges]), block)
    return arrivals, flows


def grouped_sweep(
    index: CsrIndex,
    rows: np.ndarray,
    edges: np.ndarray,
    level_keys: np.ndarray,
    phi: np.ndarray,
    demands: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One combined level sweep over many destinations' edge instances.

    Args:
        rows / edges: per-instance destination row and edge index — one
            instance per (destination, DAG edge) pair.
        level_keys: per-instance sort key; processing instances grouped
            by ascending key must respect every destination's own
            topological order (per-DAG Kahn levels, or ``-dist[tail]``
            for shortest-path DAGs).  Keys are never compared *across*
            destinations' correctness — state rows are disjoint — so any
            globally sortable key that is monotone per destination works.
        phi: per-instance splitting fraction.
        demands: originated volumes, shape ``(R, M, N)``.

    Returns:
        ``(arrivals, flows)`` of shapes ``(R, M, N)`` and ``(R, M, E)``.
    """
    num_rows, num_matrices, _num_nodes = demands.shape
    arrivals = demands.astype(np.float64, copy=True)
    flows = np.zeros((num_rows, num_matrices, index.num_edges))
    if rows.size == 0:
        return arrivals, flows
    order = np.argsort(level_keys, kind="stable")
    rows, edges = rows[order], edges[order]
    phi = phi[order]
    tails, heads = index.tail[edges], index.head[edges]
    keys = level_keys[order]
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    m_cols = np.arange(num_matrices)[np.newaxis, :]
    blocks = []
    start = 0
    for stop in [*boundaries.tolist(), rows.size]:
        r = rows[start:stop, np.newaxis]
        block = arrivals[r, m_cols, tails[start:stop, np.newaxis]] * phi[start:stop, np.newaxis]
        blocks.append(block)
        np.add.at(arrivals, (r, m_cols, heads[start:stop, np.newaxis]), block)
        start = stop
    # One deferred scatter: each (row, edge) instance is written exactly
    # once, so assignment order across levels is irrelevant.
    flows[rows[:, np.newaxis], m_cols, edges[:, np.newaxis]] = np.concatenate(blocks)
    return arrivals, flows


def multi_spf_sweep(
    index: CsrIndex,
    dist_rows: np.ndarray,
    tight_rows: np.ndarray,
    ratio_rows: np.ndarray,
    demands: np.ndarray,
) -> np.ndarray:
    """Propagate many destinations' demand blocks in one combined sweep.

    Args:
        dist_rows / tight_rows / ratio_rows: per-destination SPF state,
            one row per destination, shapes ``(A, N)`` / ``(A, E)`` /
            ``(A, E)``.
        demands: originated volumes, shape ``(A, M, N)`` — matrix ``m``'s
            demand toward destination row ``a``.

    Returns:
        Edge flows, shape ``(A, M, E)``.

    The destinations' DAGs are disjoint rows of the state tensors, so
    sorting every (destination, edge) instance by descending
    ``dist[tail]`` *globally* respects each destination's own schedule
    while collapsing A separate level loops into one: every tight edge
    strictly decreases the distance to its destination (weights are
    positive), so an edge's tail only receives flow from strictly
    farther tails.  Float rounding can break that witness — ``w + dv ==
    dv`` for a tiny weight collapses an edge's endpoint distances — so
    if any tight edge fails the strict decrease, every destination falls
    back to its own Kahn schedule (:func:`edge_level_schedule`) and
    :func:`sweep_flows`.
    """
    flows = np.zeros((demands.shape[0], demands.shape[1], index.num_edges))
    rows, edges = np.nonzero(tight_rows)
    if rows.size == 0:
        return flows
    tails = index.tail[edges]
    tail_dist = dist_rows[rows, tails]
    if not (tail_dist > dist_rows[rows, index.head[edges]]).all():
        for a in range(demands.shape[0]):
            edge_ids = np.flatnonzero(tight_rows[a])
            schedule = edge_level_schedule(index, edge_ids)
            _arrivals, flows[a] = sweep_flows(index, schedule, ratio_rows[a], demands[a])
        return flows
    _arrivals, flows = grouped_sweep(
        index, rows, edges, -tail_dist, ratio_rows[rows, edges], demands
    )
    return flows


def max_utilization(index: CsrIndex, loads: np.ndarray) -> float:
    """Worst finite-capacity utilization over ``(M, E)`` (or ``(E,)``) loads."""
    if not index.finite.any():
        return 0.0
    finite_loads = loads[..., index.finite] / index.capacity[index.finite]
    if finite_loads.size == 0:
        return 0.0
    return float(finite_loads.max())
