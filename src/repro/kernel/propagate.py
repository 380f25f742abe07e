"""Vectorized flow propagation: one level schedule over edge instances.

The reference recursions (:mod:`repro.routing.propagation`) walk one DAG
node at a time with dict lookups.  Here every caller flattens its DAGs into
*instances* — one per (destination row, network edge) — over a flat
``row * N + node`` state, and :class:`LevelSchedule` groups them into
levels by the longest-path depth of their tails.  Every edge goes from a
lower level to a strictly higher one, so propagation processes one level
at a time with array ops — ``flow = arrivals[tails] * phi`` and a
scattered add into the heads — vectorized over any number of demand
columns (matrices, or one unit column per source for the oracle's
fraction coefficients).  Destinations are disjoint state rows, so one
schedule serves all of them at once, and a caller may add a start axis
to the state, so one sweep serves several starts too.  The scattered add
runs ``np.add.at`` on the flattened state at flat positions
(:meth:`LevelSchedule.flat_targets`): numpy's 1-D fast path, several
times faster than indexing whole rows and bit for bit the same sums.

Depths come from a vectorized Kahn peel, which works for *any* DAG —
shortest-path or augmented, with or without a strict distance decrease
along its edges — and detects cycles exactly like
:class:`repro.graph.dag.Dag` does (a malformed edge set raises instead of
silently dropping flow).
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from repro.exceptions import RoutingError
from repro.graph.dag import Dag
from repro.kernel.csr import CsrIndex

#: Per-Dag edge index arrays, keyed weakly so discarded DAGs (each
#: local-search round builds a fresh set) free theirs.
_DAG_EDGE_IDS: "weakref.WeakKeyDictionary[Dag, tuple]" = weakref.WeakKeyDictionary()


def topological_edge_ids(index: CsrIndex, dag: Dag) -> np.ndarray:
    """A DAG's network edge indices: tails in topological order, heads in
    out-neighbor order.  Cached per ``Dag``.

    Raises:
        RoutingError: when a DAG edge is not an edge of ``index``'s network.
    """
    cached = _DAG_EDGE_IDS.get(dag)
    if cached is None or cached[0] is not index:
        edge_ids = []
        for tail in dag.topological_order():
            for head in dag.out_neighbors(tail):
                edge_id = index.edge_id.get((tail, head))
                if edge_id is None:
                    raise RoutingError(
                        f"DAG edge {(tail, head)!r} toward {dag.root!r} is not a network edge"
                    )
                edge_ids.append(edge_id)
        cached = (index, np.array(edge_ids, dtype=np.int64))
        _DAG_EDGE_IDS[dag] = cached
    return cached[1]


class LevelSchedule:
    """Edge instances grouped into levels by the longest-path depth of their tail.

    Instances of one level keep the caller's relative order, so the caller's
    order fixes every summation order.

    Attributes:
        order: caller position of each instance, in schedule order.
        row / edge: destination row and network edge per instance.
        tail / head: flat ``row * N + node`` state index per instance.
        levels: ``(span, tails, heads)`` per level, ``span`` a slice of
            the schedule.
    """

    def __init__(self, index: CsrIndex, rows: np.ndarray, edges: np.ndarray):
        num_nodes = index.num_nodes
        tails = rows * num_nodes + index.tail[edges]
        heads = rows * num_nodes + index.head[edges]
        size = (int(rows.max()) + 1) * num_nodes if rows.size else 0
        indegree = np.bincount(heads, minlength=size)
        pending = np.arange(rows.size)
        fired = []
        # Kahn peel over instances: an instance fires in the round after
        # every instance into its tail has fired, so its round is its
        # tail's longest-path depth; each round keeps the caller's order.
        while pending.size:
            ready = indegree[tails[pending]] == 0
            batch = pending[ready]
            if batch.size == 0:
                raise RoutingError("edge set contains a directed cycle; not a DAG")
            fired.append(batch)
            pending = pending[~ready]
            indegree -= np.bincount(heads[batch], minlength=size)

        self.order = np.concatenate(fired) if fired else pending
        self.row = rows[self.order]
        self.edge = edges[self.order]
        self.tail = tails[self.order]
        self.head = heads[self.order]
        self.num_instances = self.order.size
        bounds = np.cumsum([0, *(batch.size for batch in fired)]).tolist()
        self.levels = [
            (slice(start, stop), self.tail[start:stop], self.head[start:stop])
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]
        self._targets: dict[tuple[int, bool], list[np.ndarray]] = {}

    def flat_targets(self, width: int, reverse: bool = False) -> list[np.ndarray]:
        """Per level, the flat state position of every (instance, column)
        entry: ``head * width + column`` (``tail`` for ``reverse``),
        instance-major.  Cached per width.

        ``np.add.at`` on the flattened state with these positions takes
        numpy's 1-D fast path, where indexing whole state rows walks each
        row element by element.  Both add an entry's duplicates in
        instance order, so the sums are bit for bit the same.
        """
        key = (width, reverse)
        targets = self._targets.get(key)
        if targets is None:
            nodes = self.tail if reverse else self.head
            flat = (nodes[:, np.newaxis] * width + np.arange(width)).ravel()
            targets = [flat[span.start * width : span.stop * width] for span, _t, _h in self.levels]
            self._targets[key] = targets
        return targets

    def forward(self, phi: np.ndarray, arrivals: np.ndarray) -> np.ndarray:
        """Sweep ``arrivals`` ``(R * N, *starts, B)`` in place; per-instance
        flows ``(I, *starts, B)``.

        ``phi`` is the per-instance splitting ratio, in schedule order:
        ``(I,)``, or ``(I, S)`` with one column per start of an ``(R * N,
        S, B)`` state.  Every (start, column) entry sees the same
        operations in the same order as a sweep of it alone.
        """
        if not arrivals.flags.c_contiguous:
            raise ValueError("the swept state must be C-contiguous")
        ratios = phi.reshape(phi.shape + (1,) * (arrivals.ndim - phi.ndim))
        flows = np.empty((self.num_instances,) + arrivals.shape[1:])
        state = arrivals.reshape(-1)
        targets = self.flat_targets(math.prod(arrivals.shape[1:]))
        for (span, tails, _heads), target in zip(self.levels, targets):
            block = flows[span]
            np.multiply(arrivals[tails], ratios[span], out=block)
            np.add.at(state, target, block.reshape(-1))
        return flows


def max_utilization(index: CsrIndex, loads: np.ndarray) -> float:
    """Worst finite-capacity utilization over ``(M, E)`` (or ``(E,)``) loads."""
    if not index.finite.any():
        return 0.0
    finite_loads = loads[..., index.finite] / index.capacity[index.finite]
    if finite_loads.size == 0:
        return 0.0
    return float(finite_loads.max())
