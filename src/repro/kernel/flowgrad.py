"""Differentiable flow propagation on flat edge arrays.

Both splitting optimizers (:mod:`repro.core.softmax_opt`,
:mod:`repro.core.gp`) evaluate, thousands of times per solve, the per-edge
loads that splitting ratios induce for a finite batch of ``K`` demand
matrices, plus derivatives of those loads.  :class:`FlowProgram` compiles
the per-destination DAGs and the batch once into flat arrays:

* one *instance* per (destination, DAG edge), sorted by the depth of its
  tail in its own DAG: a level schedule, as in :mod:`repro.kernel.propagate`,
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

Only the array views of ratios cross this boundary; callers convert to
and from ratio dicts once per solve.  :mod:`repro.routing.propagation` is
the reference oracle for loads and central finite differences pin the
derivatives (``tests/test_flowgrad.py``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.demands.matrix import DemandMatrix
from repro.exceptions import RoutingError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.kernel.csr import csr_index


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

        keys: list[tuple[Node, Edge]] = []
        instances: list[tuple[int, int, int, int, int]] = []  # depth, row, tail, head, edge
        for row, (t, dag) in enumerate(dags.items()):
            levels: dict[Node, int] = {}
            for node in dag.topological_order():
                level = levels.setdefault(node, 0)
                for head in dag.out_neighbors(node):
                    edge_id = index.edge_id.get((node, head))
                    if edge_id is None:
                        raise RoutingError(
                            f"DAG edge {(node, head)!r} toward {t!r} is not a network edge"
                        )
                    levels[head] = max(levels.get(head, 0), level + 1)
                    keys.append((t, (node, head)))
                    instances.append(
                        (level, row, index.node_id[node], index.node_id[head], edge_id)
                    )
        # Schedule: by tail depth; construction order breaks ties, keeping
        # each node's out-edges in DAG order.
        columns = np.array(instances, dtype=np.int64).reshape(-1, 5)
        order = np.argsort(columns[:, 0], kind="stable")
        self.keys = [keys[i] for i in order]
        depth, row, tail, head, edge = columns[order].T
        self._row = row
        self._head_node = head
        self._tail = row * num_nodes + tail
        self._head = row * num_nodes + head
        self.num_instances = row.size
        bounds = [0, *(np.flatnonzero(np.diff(depth)) + 1).tolist(), row.size]
        self._levels = [
            (slice(start, stop), self._tail[start:stop], self._head[start:stop])
            for start, stop in zip(bounds[:-1], bounds[1:])
            if stop > start
        ]

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
        """Per-group softmax of the variable vector (the variables' ratios)."""
        if self.size == 0:
            return np.zeros(0)
        shifted = np.exp(theta - np.maximum.reduceat(theta, self._group_starts)[self._group_of])
        return shifted / np.add.reduceat(shifted, self._group_starts)[self._group_of]

    def instance_ratios(self, values: np.ndarray) -> np.ndarray:
        """Per-instance ratios: ``values`` on the variables, 1 elsewhere."""
        phi = np.ones(self.num_instances)
        phi[self._var] = values
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

        ``demands`` defaults to the compiled ``(R * N, K)`` batch.
        """
        arrivals = (self._demands if demands is None else demands).copy()
        flows = np.empty((self.num_instances, arrivals.shape[1]))
        for span, tails, heads in self._levels:
            block = flows[span]
            np.multiply(arrivals[tails], phi[span, np.newaxis], out=block)
            np.add.at(arrivals, heads, block)
        return arrivals, flows

    def edge_loads(self, flows: np.ndarray) -> np.ndarray:
        """Flows summed over destinations: one row per used network edge."""
        if self.num_instances == 0:
            return np.zeros((0, flows.shape[1]))
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

    def backward(self, phi: np.ndarray, arrivals: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Gradient of ``sum(psi * loads)`` w.r.t. every instance's ratio.

        ``psi`` has the shape of :meth:`edge_loads` — one row per used edge.
        """
        weights = psi[self._edge_of]
        lam = np.zeros_like(arrivals)
        sensitivity = np.empty_like(weights)
        for span, tails, heads in reversed(self._levels):
            block = np.add(weights[span], lam[heads], out=sensitivity[span])
            np.add.at(lam, tails, block * phi[span, np.newaxis])
        return np.einsum("ik,ik->i", arrivals[self._tail], sensitivity)

    def softmax_gradient(self, shares: np.ndarray, grad_phi: np.ndarray) -> np.ndarray:
        """Chain a per-instance ratio gradient through the per-group softmax."""
        if self.size == 0:
            return np.zeros(0)
        raw = grad_phi[self._var]
        inner = np.add.reduceat(shares * raw, self._group_starts)
        return shares * (raw - inner[self._group_of])

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
        reach[self._row, :, self._edge_of] = unit_flows
        var = self._var
        seeds = arrivals[self._tail[var]] * phi[var, np.newaxis]
        reached = reach[self._row[var], self._head_node[var]]
        jacobian = seeds[:, np.newaxis, :] * reached[:, :, np.newaxis]
        jacobian[np.arange(var.size), self._edge_of[var]] += seeds
        return jacobian
