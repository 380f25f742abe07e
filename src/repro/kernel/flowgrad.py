"""Differentiable flow propagation on flat edge arrays.

Both splitting optimizers (:mod:`repro.core.softmax_opt`,
:mod:`repro.core.gp`) evaluate, thousands of times per solve, the per-edge
loads that splitting ratios induce for a finite batch of ``K`` demand
matrices, plus derivatives of those loads.  :class:`FlowProgram` compiles
the per-destination DAGs and the batch once into flat arrays:

* one *instance* per (destination, DAG edge), grouped by the depth of its
  tail in its own DAG: a :class:`~repro.kernel.propagate.LevelSchedule`,
  in which a node's out-edges all fire in the same level;
* the arrivals of every (destination, node) pair as one row of an
  ``(R * N, K)`` state, seeded with the demand tensor;
* the splittable nodes' out-edges as contiguous softmax groups of the
  variable vector, with a variable -> instance index.

Each evaluation then runs level by level, with no dict in the loop:

* forward: ``flow = F[tail] * phi`` per level, scattered into ``F[head]``;
  loads are the flows summed over destinations per network edge;
* reverse mode, for ``S = sum_{e,k} psi[e, k] * load[e, k]``: the same
  schedule reversed, ``lam[tail] = sum_out phi * (psi + lam[head])``, then
  ``grad(e) = <F[tail], psi(e) + lam[head]>`` for every instance at once;
* forward mode, ``d load / d log phi(a)`` for every variable
  ``a = (x, y)``: perturbing ``a`` injects ``F(x) * phi(a)`` at ``y``
  (and on ``a`` itself), so one sweep of unit injections at every node
  gives every variable's Jacobian row as an outer product.

At these sizes a level sweep costs mostly per call, not per column, so
the forward sweep, the loads, the adjoint and the softmax all take an
optional *start* axis: ``(I, S)`` ratios sweep an ``(R * N, S, K)``
state, and the softmax runs on an ``(S, V)`` block of variable rows.
Every entry sees the same operations in the same order as a sweep of
its start alone (``np.add.at`` adds duplicates in index order per entry,
``reduceat`` sums each segment along its own axis), so a batched result
is bit for bit the single-start one.  :meth:`FlowProgram.backward`
likewise serves several objectives over side-by-side demand columns
from one reverse sweep, contracting each column block on its own.

Only the array views of ratios cross this boundary; callers convert to
and from ratio dicts once per solve.  :mod:`repro.routing.propagation` is
the reference oracle for loads and central finite differences pin the
derivatives (``tests/test_flowgrad.py``).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.demands.matrix import DemandMatrix
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.kernel.csr import csr_index
from repro.kernel.propagate import LevelSchedule, topological_edge_ids


class FlowProgram:
    """Per-destination DAGs and a demand batch compiled into a level schedule.

    Attributes:
        groups: ``(destination, node, out-edges)`` per splittable node, in
            variable order (destinations sorted by label, nodes in
            topological order); the variable vector is their concatenation.
        size: number of variables (ratios at splittable nodes).
        keys: ``(destination, edge)`` per instance, in schedule order.
        edges: the used network edges, one per row of the load arrays.
        capacity: capacity per used network edge.
        finite: positions of the finite-capacity used edges.
    """

    def __init__(
        self,
        network: Network,
        dags: Mapping[Node, Dag],
        matrices: Sequence[DemandMatrix],
    ):
        index = csr_index(network)
        num_nodes = index.num_nodes
        self.destinations = list(dags)
        self.num_rows = len(dags)

        # Schedule: by tail depth; caller order breaks ties, keeping each
        # node's out-edges in DAG order.
        parts = [topological_edge_ids(index, dag) for dag in dags.values()]
        sizes = [part.size for part in parts]
        self.schedule = LevelSchedule(
            index,
            np.repeat(np.arange(self.num_rows, dtype=np.int64), sizes),
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64),
        )
        row, edge = self.schedule.row, self.schedule.edge
        self.keys = [
            (self.destinations[r], index.edges[e]) for r, e in zip(row.tolist(), edge.tolist())
        ]
        self._head_node = index.head[edge]
        self.num_instances = row.size

        # Used network edges, and the instance order that sums each edge's
        # flows destination by destination.
        self._edges, self._edge_of = np.unique(edge, return_inverse=True)
        self._by_edge = np.lexsort((row, edge))
        _, self._edge_starts = np.unique(edge[self._by_edge], return_index=True)
        self.edges = [index.edges[e] for e in self._edges.tolist()]
        self.capacity = index.capacity[self._edges]
        self.finite = np.flatnonzero(index.finite[self._edges])

        # Variables: the splittable nodes' out-edges, grouped per node.
        position = {key: i for i, key in enumerate(self.keys)}
        self.groups: list[tuple[Node, Node, list[Edge]]] = []
        for t in sorted(dags, key=str):
            dag = dags[t]
            for node in dag.topological_order():
                heads = dag.out_neighbors(node)
                if node != t and len(heads) >= 2:
                    self.groups.append((t, node, [(node, h) for h in heads]))
        sizes = np.array([len(edges) for _t, _n, edges in self.groups], dtype=np.int64)
        self.size = int(sizes.sum())
        self._var = np.array(
            [position[(t, e)] for t, _n, edges in self.groups for e in edges], dtype=np.int64
        )
        self._group_starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
        self._group_of = np.repeat(np.arange(sizes.size), sizes)

        # Demand tensor: matrix k's volume from node s toward row t.
        row_of = {t: r for r, t in enumerate(self.destinations)}
        self._demands = np.zeros((self.num_rows * num_nodes, len(matrices)))
        for k, dm in enumerate(matrices):
            for (s, t), volume in dm.items():
                r, node = row_of.get(t), index.node_id.get(s)
                if r is not None and node is not None:
                    self._demands[r * num_nodes + node, k] += volume
        self._num_nodes = num_nodes

    # -- ratios ---------------------------------------------------------------

    def softmax(self, theta: np.ndarray) -> np.ndarray:
        """Per-group softmax of the variable vector (the variables' ratios).

        ``theta`` is ``(V,)``, or ``(S, V)`` with one row per start.
        """
        if self.size == 0:
            return np.zeros(theta.shape)
        starts, group_of = self._group_starts, self._group_of
        shifted = np.exp(theta - np.maximum.reduceat(theta, starts, axis=-1)[..., group_of])
        return shifted / np.add.reduceat(shifted, starts, axis=-1)[..., group_of]

    def instance_ratios(self, values: np.ndarray) -> np.ndarray:
        """Per-instance ratios: ``values`` on the variables, 1 elsewhere.

        ``(V,)`` values give ``(I,)`` ratios; ``(S, V)`` give ``(I, S)``.
        """
        phi = np.ones((self.num_instances,) + values.shape[:-1])
        phi[self._var] = values.T
        return phi

    def ratios_vector(self, ratios: Mapping[Node, Mapping[Edge, float]]) -> np.ndarray:
        """Per-instance ratios read from a ratio dict (missing edges are 0)."""
        return np.array(
            [ratios.get(t, {}).get(edge, 0.0) for t, edge in self.keys], dtype=np.float64
        )

    def ratio_dicts(self, phi: np.ndarray) -> dict[Node, dict[Edge, float]]:
        """Ratio dicts, one per destination, from per-instance ratios."""
        ratios: dict[Node, dict[Edge, float]] = {t: {} for t in self.destinations}
        for (t, edge), value in zip(self.keys, phi.tolist()):
            ratios[t][edge] = value
        return ratios

    # -- propagation ----------------------------------------------------------

    def forward(
        self, phi: np.ndarray, demands: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Arrivals ``(R * N, B)`` and per-instance flows ``(I, B)``.

        ``demands`` defaults to the compiled ``(R * N, K)`` batch.  With
        ``(I, S)`` ratios every start sweeps its own copy of the demands
        in the same call: arrivals ``(R * N, S, B)``, flows ``(I, S, B)``.
        """
        source = self._demands if demands is None else demands
        if phi.ndim == 1:
            arrivals = source.copy()
        else:
            arrivals = np.repeat(source[:, np.newaxis], phi.shape[1], axis=1)
        return arrivals, self.schedule.forward(phi, arrivals)

    def edge_loads(self, flows: np.ndarray) -> np.ndarray:
        """Flows summed over destinations: one row per used network edge."""
        if self.num_instances == 0:
            return np.zeros((0,) + flows.shape[1:])
        return np.add.reduceat(flows[self._by_edge], self._edge_starts, axis=0)

    def loaded(self, loads: np.ndarray) -> np.ndarray:
        """Positions of the finite-capacity edges carrying load in some matrix.

        Only these enter the optimizers' objectives and constraints: an
        idle edge contributes no term.
        """
        return self.finite[loads[self.finite].any(axis=1)]

    def max_utilization(self, loads: np.ndarray) -> float:
        """Worst finite-capacity utilization over edges and batch (0 if none)."""
        finite = loads[self.finite]
        if finite.size == 0:
            return 0.0
        return float((finite / self.capacity[self.finite, np.newaxis]).max())

    # -- derivatives ----------------------------------------------------------

    def backward(
        self,
        phi: np.ndarray,
        arrivals: np.ndarray,
        psi: np.ndarray,
        blocks: Sequence[slice] = (slice(None),),
    ) -> list[np.ndarray]:
        """Gradient of ``sum(psi * loads)`` w.r.t. every instance's ratio,
        one per column block of ``blocks``, from one reverse sweep.

        ``psi`` has the shape of :meth:`edge_loads` — one row per used
        edge; each gradient is ``(I,)``, or ``(I, S)`` for ``(I, S)``
        ratios.  Columns never mix in the sweep, and each block's
        contraction runs on its own contiguous copy, so a block's gradient
        is bit for bit that of a program compiled over its matrices alone.
        """
        ratios = phi.reshape(phi.shape + (1,))
        weights = psi[self._edge_of]
        lam = np.zeros(arrivals.shape)  # C order: `adjoint` must be a view
        sensitivity = np.empty_like(weights)
        adjoint = lam.reshape(-1)
        targets = self.schedule.flat_targets(math.prod(lam.shape[1:]), reverse=True)
        for (span, tails, heads), target in reversed(list(zip(self.schedule.levels, targets))):
            block = np.add(weights[span], lam[heads], out=sensitivity[span])
            np.add.at(adjoint, target, (block * ratios[span]).reshape(-1))
        upstream = arrivals[self.schedule.tail]
        return [
            np.einsum(
                "i...k,i...k->i...",
                np.ascontiguousarray(upstream[..., columns]),
                np.ascontiguousarray(sensitivity[..., columns]),
            )
            for columns in blocks
        ]

    def softmax_gradient(self, shares: np.ndarray, grad_phi: np.ndarray) -> np.ndarray:
        """Chain a per-instance ratio gradient through the per-group softmax.

        ``(V,)`` shares with ``(I,)`` gradients, or ``(S, V)`` with ``(I, S)``.
        """
        if self.size == 0:
            return np.zeros(shares.shape)
        raw = grad_phi[self._var].T
        inner = np.add.reduceat(shares * raw, self._group_starts, axis=-1)
        return shares * (raw - inner[..., self._group_of])

    def load_jacobian(self, phi: np.ndarray, arrivals: np.ndarray) -> np.ndarray:
        """``d loads / d log phi(a)`` per variable ``a``, shape ``(V, U, K)``.

        Perturbing the log-ratio of ``a = (x, y)`` injects ``F(x) * phi(a)``
        at ``y`` and on ``a`` itself.  The injected flow then spreads
        downstream exactly like a unit injected at ``y``, so one sweep of
        unit injections at every (destination, node) pair covers every
        variable.
        """
        num_nodes = self._num_nodes
        _, unit_flows = self.forward(phi, np.tile(np.eye(num_nodes), (self.num_rows, 1)))
        # reach[r, y, u] = share of a unit injected at y (toward row r)
        # that crosses used edge u.
        reach = np.zeros((self.num_rows, num_nodes, self._edges.size))
        reach[self.schedule.row, :, self._edge_of] = unit_flows
        var = self._var
        seeds = arrivals[self.schedule.tail[var]] * phi[var, np.newaxis]
        reached = reach[self.schedule.row[var], self._head_node[var]]
        jacobian = seeds[:, np.newaxis, :] * reached[:, :, np.newaxis]
        jacobian[np.arange(var.size), self._edge_of[var]] += seeds
        return jacobian
