"""Delta re-evaluation of ECMP utilization under single-weight moves.

The Fortz–Thorup-style weight step tries dozens of single-link weight
changes per move and scores each candidate by the worst ECMP utilization
across the critical demand matrices.  Re-deriving every destination's DAG
from scratch per candidate is almost entirely wasted work: changing one
link's weight leaves most destinations' shortest paths untouched.

:class:`EcmpDeltaEvaluator` keeps, for the *committed* weight vector, the
all-destination distance matrix, tight-edge masks, equal-split ratio rows,
and the per-(destination, matrix) edge flows.  A candidate move is scored
by a vectorized screen over destinations:

* raising ``w(u, v)`` can only affect destinations whose DAG currently
  *contains* the edge (``dist[t, u] ~= w_old + dist[t, v]``);
* lowering it can additionally affect destinations where the cheaper edge
  now ties or beats the incumbent (``w_new + dist[t, v] <~ dist[t, u]``);

and only the flagged destinations get a fresh (batched) Dijkstra, mask,
ratio row, and propagation — everything else reuses committed state, with
total loads updated by subtracting the stale rows and adding the fresh
ones.  ``commit`` installs a scored candidate as the new baseline.

Propagation schedules the flagged destinations' tight masks directly
(:class:`~repro.kernel.propagate.LevelSchedule`): Kahn depth needs no
strict distance decrease along tight edges, so a weight too small to
move a float distance needs no special case.

Reachability cannot change under positive finite weight moves, so the
reference's "demand source outside the DAG" error is checked once at
construction and never again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csgraph

from repro.demands.matrix import DemandMatrix
from repro.exceptions import RoutingError
from repro.graph.network import Edge, Network
from repro.kernel.csr import CsrIndex, csr_index, weight_vector
from repro.kernel.propagate import LevelSchedule, max_utilization
from repro.kernel.spf import tie_close, tight_edge_mask, uniform_ratio_rows


@dataclass
class _Candidate:
    """A scored (edge, weight) move, ready to commit."""

    edge_id: int
    new_weight: float
    affected: np.ndarray  # destination ids whose state was recomputed
    dist_rows: np.ndarray  # (A, N) fresh distance rows
    tight_rows: np.ndarray  # (A, E) fresh masks
    ratio_rows: np.ndarray  # (A, E) fresh equal-split rows
    flow_rows: np.ndarray  # (A, M, E) fresh per-matrix flows
    loads: np.ndarray  # (M, E) candidate total loads
    utilization: float


class EcmpDeltaEvaluator:
    """Incremental ECMP max-utilization over a fixed set of demand matrices.

    The evaluator's committed state always corresponds to the weight
    vector last installed (constructor or :meth:`commit`); candidate
    moves are always scored *relative to the committed state*, matching
    the weight search's try-one-edge-then-restore loop.
    """

    def __init__(
        self,
        network: Network,
        weights: Mapping[Edge, float],
        matrices: Sequence[DemandMatrix],
    ):
        self.index: CsrIndex = csr_index(network)
        self.weights = weight_vector(self.index, weights)
        self.matrices = list(matrices)
        index = self.index

        # Demands as a dense (targets, matrices, nodes) tensor; only
        # destinations with any demand contribute load.
        demand = np.zeros((index.num_nodes, len(self.matrices), index.num_nodes))
        for m, matrix in enumerate(self.matrices):
            for (s, t), volume in matrix.items():
                demand[index.node_id[t], m, index.node_id[s]] += volume
        self._demand = demand
        self._demanded = np.flatnonzero(demand.any(axis=(1, 2)))

        #: Persistent reversed-adjacency matrix for candidate scoring;
        #: ``evaluate_move`` pokes one slot of its data in place instead
        #: of rebuilding the matrix, and ``commit`` refreshes it.
        self._csr = self.index.reversed_csr(self.weights.copy())
        self._csr_position = self.index.csr_data_position()

        self._install(self._full_state(self.weights))
        self._check_reachability()

    # -- committed-state bookkeeping ------------------------------------

    def _full_state(self, weights: np.ndarray):
        """Distances, masks, ratios, and flows for every destination."""
        matrix = self.index.reversed_csr(weights)
        dist = csgraph.dijkstra(matrix, directed=True)
        tight = self._masked_tight(weights, dist, np.arange(self.index.num_nodes))
        ratios = uniform_ratio_rows(self.index, tight)
        flows = self._flows_for(tight, ratios, np.arange(self.index.num_nodes))
        return dist, tight, ratios, flows

    def _masked_tight(
        self, weights: np.ndarray, dist_rows: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Tight mask rows with the per-row "root never forwards" guard."""
        tight = tight_edge_mask(self.index, weights, dist_rows)
        tight &= self.index.tail[np.newaxis, :] != targets[:, np.newaxis]
        return tight

    def _flows_for(
        self,
        tight_rows: np.ndarray,
        ratio_rows: np.ndarray,
        targets: np.ndarray,
    ) -> np.ndarray:
        """Per-matrix edge flows, shape ``(len(targets), M, E)``.

        Destinations without demand keep zero flows — their DAG never
        carries traffic, so their masks are dropped from the combined
        sweep entirely.
        """
        num_matrices = len(self.matrices)
        flows = np.zeros((len(targets), num_matrices, self.index.num_edges))
        demanded = np.flatnonzero(self._demand[targets].any(axis=(1, 2)))
        if demanded.size == 0:
            return flows
        rows, edges = np.nonzero(tight_rows[demanded])
        schedule = LevelSchedule(self.index, rows, edges)
        # (A, M, N) -> (A * N, M), C-contiguous as the sweep needs (with
        # one destination the reshape is a strided view).  Fancy indexing
        # copies, so the in-place sweep never writes into self._demand.
        arrivals = np.ascontiguousarray(
            self._demand[targets[demanded]].transpose(0, 2, 1).reshape(-1, num_matrices)
        )
        flows[demanded[schedule.row], :, schedule.edge] = schedule.forward(
            ratio_rows[demanded][schedule.row, schedule.edge], arrivals
        )
        return flows

    def _install(self, state) -> None:
        self.dist, self.tight, self.ratios, self._flows = state
        self._loads = self._flows.sum(axis=0)  # (M, E)

    def _check_reachability(self) -> None:
        """Mirror the reference error for demand sources outside a DAG."""
        for t in self._demanded:
            sources = np.flatnonzero(self._demand[t].any(axis=0))
            unreachable = sources[~np.isfinite(self.dist[t, sources])]
            if unreachable.size:
                source = self.index.nodes[int(unreachable[0])]
                root = self.index.nodes[int(t)]
                raise RoutingError(
                    f"demand source {source!r} is not part of the DAG rooted at {root!r}"
                )

    # -- queries ---------------------------------------------------------

    def utilization(self) -> float:
        """Worst utilization across all matrices under committed weights."""
        if not self.matrices:
            return 0.0
        return max_utilization(self.index, self._loads)

    def per_edge_utilization(self) -> dict[Edge, float]:
        """Max-over-matrices utilization per loaded finite edge (committed).

        Matches what the reference focus-edge selection derives from
        per-matrix ``link_loads``: only edges carrying positive flow under
        some matrix appear.
        """
        result: dict[Edge, float] = {}
        if not self.matrices:
            return result
        # load / inf capacity is 0.0, exactly like the reference's
        # ``flow / capacity`` on the paper's "arbitrarily high" links.
        utilization = (self._loads / self.index.capacity[np.newaxis, :]).max(axis=0)
        for e in np.flatnonzero(self._loads.max(axis=0) > 0.0):
            result[self.index.edges[int(e)]] = float(utilization[e])
        return result

    def weight_mapping(self) -> dict[Edge, float]:
        """The committed weights as an edge-keyed dict."""
        return {edge: float(self.weights[i]) for i, edge in enumerate(self.index.edges)}

    # -- delta evaluation -------------------------------------------------

    def affected_destinations(self, edge_id: int, new_weight: float) -> np.ndarray:
        """Destinations whose DAG can change when one edge's weight moves.

        The screen is exact on the "unchanged" side: a destination it
        rejects provably keeps its distance vector and tight mask, so
        skipping its recomputation cannot alter the result.
        """
        old_weight = self.weights[edge_id]
        if new_weight == old_weight:
            return np.empty(0, dtype=np.int64)
        in_dag = self.tight[:, edge_id]
        if new_weight > old_weight:
            # Non-tight edges only get less attractive; distances keep.
            return np.flatnonzero(in_dag)
        du = self.dist[:, self.index.tail[edge_id]]
        dv = self.dist[:, self.index.head[edge_id]]
        with np.errstate(invalid="ignore"):
            through = new_weight + dv
            better_or_tie = np.isfinite(through) & (
                (du >= through) | tie_close(du, through)
            )
        return np.flatnonzero(in_dag | better_or_tie)

    def evaluate_move(
        self, edge: Edge | int, new_weight: float, prune_above: float | None = None
    ) -> _Candidate | None:
        """Score one single-edge weight change against the committed state.

        Args:
            prune_above: when given, candidates that provably cannot reach
                a utilization *below* this value return ``None`` without
                re-solving: stripping the affected destinations' flows
                leaves a lower bound on every reachable utilization (new
                flows only add load), so pruning never discards a move
                the full evaluation would have accepted.
        """
        edge_id = edge if isinstance(edge, int) else self.index.edge_id[edge]
        affected = self.affected_destinations(edge_id, float(new_weight))
        if affected.size == 0:
            utilization = self.utilization()
            if prune_above is not None and utilization >= prune_above:
                return None
            return _Candidate(
                edge_id=edge_id,
                new_weight=float(new_weight),
                affected=affected,
                dist_rows=np.empty((0, self.index.num_nodes)),
                tight_rows=np.empty((0, self.index.num_edges), dtype=bool),
                ratio_rows=np.empty((0, self.index.num_edges)),
                flow_rows=np.empty((0, len(self.matrices), self.index.num_edges)),
                loads=self._loads,
                utilization=utilization,
            )
        remainder = self._loads - self._flows[affected].sum(axis=0)
        if prune_above is not None and self.matrices:
            if max_utilization(self.index, remainder) >= prune_above:
                return None
        weights = self.weights.copy()
        weights[edge_id] = new_weight
        position = self._csr_position[edge_id]
        self._csr.data[position] = new_weight
        try:
            dist_rows = csgraph.dijkstra(self._csr, directed=True, indices=affected)
        finally:
            self._csr.data[position] = self.weights[edge_id]
        tight_rows = self._masked_tight(weights, dist_rows, affected)
        ratio_rows = uniform_ratio_rows(self.index, tight_rows)
        flow_rows = self._flows_for(tight_rows, ratio_rows, affected)
        loads = remainder + flow_rows.sum(axis=0)
        utilization = max_utilization(self.index, loads) if self.matrices else 0.0
        return _Candidate(
            edge_id=edge_id,
            new_weight=float(new_weight),
            affected=affected,
            dist_rows=dist_rows,
            tight_rows=tight_rows,
            ratio_rows=ratio_rows,
            flow_rows=flow_rows,
            loads=loads,
            utilization=utilization,
        )

    def commit(self, candidate: _Candidate) -> None:
        """Install a scored move as the new committed baseline."""
        self.weights = self.weights.copy()
        self.weights[candidate.edge_id] = candidate.new_weight
        self._csr.data[self._csr_position[candidate.edge_id]] = candidate.new_weight
        if candidate.affected.size:
            self.dist = self.dist.copy()
            self.tight = self.tight.copy()
            self.ratios = self.ratios.copy()
            self._flows = self._flows.copy()
            self.dist[candidate.affected] = candidate.dist_rows
            self.tight[candidate.affected] = candidate.tight_rows
            self.ratios[candidate.affected] = candidate.ratio_rows
            self._flows[candidate.affected] = candidate.flow_rows
        self._loads = candidate.loads


def ecmp_max_utilization(
    network: Network,
    weights: Mapping[Edge, float],
    matrices: Sequence[DemandMatrix],
) -> float:
    """Worst ECMP max-link utilization across ``matrices``, from scratch.

    A fresh evaluator per call: one batched SPF plus one propagation, no
    committed state to reuse.  The local search scores its final weights
    with it, and the reference weight search scores every candidate with
    it.  Changing these semantics requires a ``CACHE_VERSION`` bump in
    :mod:`repro.runner.spec`.
    """
    if not matrices:
        return 0.0
    return EcmpDeltaEvaluator(network, weights, matrices).utilization()
