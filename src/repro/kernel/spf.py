"""Batched shortest paths and vectorized ECMP DAG extraction.

One ``scipy.sparse.csgraph.dijkstra`` call over the reversed-adjacency CSR
matrix yields the full distance matrix ``dist[t, u]`` (distance from ``u``
*to* ``t``) for every destination at once; the ECMP DAG then falls out of
the relaxation condition as a pure array expression: edge ``(u, v)`` is on a
shortest path to ``t`` exactly when ``dist[t, u] ~= w(u, v) + dist[t, v]``,
compared with the same relative tolerance the reference extraction uses
(:data:`repro.graph.paths._TIE_RTOL` via :func:`math.isclose`).

Distances are bit-identical to the heapq reference: both computations take
the minimum, over the same finite set of paths, of the same left-to-right
float accumulation of edge weights, so the tie masks — and therefore the
DAG edge sets — agree exactly, not just within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csgraph

from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.graph.paths import _TIE_RTOL
from repro.kernel.csr import CsrIndex, csr_index, weight_vector


def tie_close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized ``math.isclose(a, b, rel_tol=_TIE_RTOL, abs_tol=0.0)``.

    The single source of ECMP tie semantics on the kernel side: the DAG
    extraction below and the delta evaluator's affected-destination
    screen must agree bit-for-bit, or the screen's "provably unchanged"
    argument breaks.
    """
    with np.errstate(invalid="ignore"):  # inf - inf from unreachable pairs
        return np.abs(a - b) <= _TIE_RTOL * np.maximum(np.abs(a), np.abs(b))


def tight_edge_mask(index: CsrIndex, weights: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Boolean ``(targets, edges)`` mask of shortest-path ("tight") edges.

    ``mask[t, e]`` is True iff edge ``e`` lies on some shortest path toward
    the ``t``-th target row of ``dist``.  Replicates
    ``math.isclose(du, w + dv, rel_tol=_TIE_RTOL, abs_tol=0.0)`` plus the
    reference extraction's guards: both endpoint distances finite, and the
    tail is never the target itself.
    """
    du = dist[:, index.tail]  # (T, E)
    dv = dist[:, index.head]
    with np.errstate(invalid="ignore"):
        through = weights[np.newaxis, :] + dv
        tight = tie_close(du, through)
    tight &= np.isfinite(du) & np.isfinite(through)
    return tight


@dataclass(frozen=True, eq=False)
class SpfState:
    """All-destination SPF under one weight vector.

    Attributes:
        index: the network's array view.
        weights: per-edge weights, aligned with ``index.edges``.
        dist: ``(N, N)`` matrix, ``dist[t, u]`` = distance from node ``u``
            to node ``t`` (rows are destinations, in node-index order).
        tight: ``(N, E)`` shortest-path edge mask per destination.
    """

    index: CsrIndex
    weights: np.ndarray
    dist: np.ndarray
    tight: np.ndarray

    def dag_edge_ids(self, target_id: int) -> np.ndarray:
        """Edge indices of the ECMP DAG rooted at ``target_id``, edge order."""
        return np.flatnonzero(self.tight[target_id])

    def dag(self, target: Node) -> Dag:
        """The ECMP DAG rooted at ``target`` as a reference :class:`Dag`.

        Edges appear in network insertion order, exactly like
        :func:`repro.graph.paths.shortest_path_dag` emits them.
        """
        index = self.index
        ids = self.dag_edge_ids(index.node_id[target])
        return Dag(target, [index.edges[e] for e in ids], index.network)

    def distances(self, target: Node) -> dict[Node, float]:
        """Distance dict for one destination (reference-shaped output)."""
        row = self.dist[self.index.node_id[target]]
        return {node: float(row[i]) for i, node in enumerate(self.index.nodes)}

    def uniform_ratios(self) -> np.ndarray:
        """ECMP splitting ratios per destination as a ``(N, E)`` array.

        ``ratios[t, e] = 1 / outdeg_t(tail[e])`` for tight edges, 0
        elsewhere — the equal-split rule over each node's DAG out-edges.
        """
        return uniform_ratio_rows(self.index, self.tight)


def uniform_ratio_rows(index: CsrIndex, tight: np.ndarray) -> np.ndarray:
    """Equal-split ratio rows (one per destination) from a tight mask."""
    outdeg = np.zeros((tight.shape[0], index.num_nodes), dtype=np.float64)
    rows, edges = np.nonzero(tight)
    np.add.at(outdeg, (rows, index.tail[edges]), 1.0)
    ratios = np.zeros(tight.shape, dtype=np.float64)
    ratios[rows, edges] = 1.0 / outdeg[rows, index.tail[edges]]
    return ratios


def compute_spf_state(network: Network, weights: Mapping[Edge, float] | np.ndarray) -> SpfState:
    """Batched SPF toward every node, computed unconditionally (no memo).

    Row ``i`` of the result corresponds to destination ``index.nodes[i]``.
    """
    index = csr_index(network)
    vector = weights if isinstance(weights, np.ndarray) else weight_vector(index, weights)
    matrix = index.reversed_csr(vector)
    dist = csgraph.dijkstra(matrix, directed=True, indices=None)
    tight = tight_edge_mask(index, vector, dist)
    # Defensive: the root never forwards (du = 0 can't be tight, but
    # keep the reference extraction's explicit guard anyway).
    tight &= index.tail[np.newaxis, :] != np.arange(index.num_nodes)[:, np.newaxis]
    return SpfState(index=index, weights=vector, dist=dist, tight=tight)


def all_targets_spf(
    network: Network,
    weights: Mapping[Edge, float] | np.ndarray,
) -> SpfState:
    """Memoized :func:`compute_spf_state` per (network, weight vector).

    ``ecmp_dags`` followed by a kernel propagation over the same weights
    computes distances once.
    """
    index = csr_index(network)
    vector = weights if isinstance(weights, np.ndarray) else weight_vector(index, weights)
    return index.memo(
        ("spf", vector.tobytes()), lambda: compute_spf_state(network, vector)
    )


def shortest_path_dags(
    network: Network,
    weights: Mapping[Edge, float],
    destinations: Sequence[Node] | None = None,
) -> dict[Node, Dag]:
    """ECMP shortest-path DAGs for many destinations in one batched SPF.

    Drop-in vectorized equivalent of calling
    :func:`repro.graph.paths.shortest_path_dag` per destination.
    """
    targets = list(destinations) if destinations is not None else network.nodes()
    state = all_targets_spf(network, weights)
    return {t: state.dag(t) for t in targets}
