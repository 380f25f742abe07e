"""Per-destination forwarding DAGs (Section III).

Destination-based routing requires that, for each destination ``t``, the
edges carrying traffic toward ``t`` form a directed acyclic graph rooted
at ``t``.  :class:`Dag` stores such a structure, validates its
invariants, and provides the topological orderings the propagation and
optimization code relies on:

* acyclicity (the defining property of a PD routing configuration);
* every node in the DAG (other than the root) has at least one out-edge,
  so flow entering the node can always make progress;
* every node can reach the root within DAG edges.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.exceptions import DagError
from repro.graph.network import Edge, Network, Node


class Dag:
    """A destination-rooted acyclic set of directed edges.

    Attributes:
        root: the destination node ``t`` the DAG routes toward.
    """

    def __init__(self, root: Node, edges: Iterable[Edge], network: Network):
        self.root = root
        #: The network every edge was validated against; the vectorized
        #: kernel resolves edge indices through it.
        self.network = network
        self._succ: dict[Node, list[Node]] = {}
        self._pred: dict[Node, list[Node]] = {}
        self._edges: list[Edge] = []
        seen: set[Edge] = set()
        for tail, head in edges:
            if (tail, head) in seen:
                raise DagError(f"duplicate DAG edge ({tail!r}, {head!r})")
            if tail == self.root:
                raise DagError(f"root {self.root!r} must not have out-edges, got ({tail!r}, {head!r})")
            if not network.has_edge(tail, head):
                raise DagError(f"DAG edge ({tail!r}, {head!r}) is not a network edge")
            seen.add((tail, head))
            self._edges.append((tail, head))
            self._succ.setdefault(tail, []).append(head)
            self._succ.setdefault(head, [])
            self._pred.setdefault(head, []).append(tail)
            self._pred.setdefault(tail, [])
        self._succ.setdefault(self.root, [])
        self._pred.setdefault(self.root, [])
        self._order = self._toposort()
        self._check_reaches_root()

    # -- invariants -------------------------------------------------------

    def _toposort(self) -> list[Node]:
        """Topological order (sources first, root last); raises on cycles."""
        indegree = {node: len(preds) for node, preds in self._pred.items()}
        frontier = [node for node, deg in indegree.items() if deg == 0]
        order: list[Node] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for head in self._succ[node]:
                indegree[head] -= 1
                if indegree[head] == 0:
                    frontier.append(head)
        if len(order) != len(self._succ):
            cyclic = sorted((str(n) for n, d in indegree.items() if d > 0))
            raise DagError(f"DAG rooted at {self.root!r} contains a cycle through {cyclic}")
        return order

    def _check_reaches_root(self) -> None:
        """Every DAG node must have a directed path to the root."""
        reaches = {self.root}
        # Walk nodes in reverse topological order: all successors are decided
        # before the node itself, so one pass suffices.
        for node in reversed(self._order):
            if node in reaches:
                continue
            if any(head in reaches for head in self._succ[node]):
                reaches.add(node)
        dead = [node for node in self._succ if node not in reaches]
        if dead:
            raise DagError(
                f"DAG rooted at {self.root!r}: nodes {sorted(map(str, dead))} cannot reach the root"
            )

    # -- queries ----------------------------------------------------------

    def nodes(self) -> list[Node]:
        """All nodes appearing in the DAG (including the root)."""
        return list(self._succ)

    def edges(self) -> list[Edge]:
        return list(self._edges)

    def out_neighbors(self, node: Node) -> list[Node]:
        return list(self._succ.get(node, ()))

    def in_neighbors(self, node: Node) -> list[Node]:
        return list(self._pred.get(node, ()))

    def out_degree(self, node: Node) -> int:
        return len(self._succ.get(node, ()))

    def has_edge(self, tail: Node, head: Node) -> bool:
        return head in self._succ.get(tail, ())

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def topological_order(self) -> list[Node]:
        """Nodes ordered so every edge goes from earlier to later (root last)."""
        return list(self._order)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def splittable_nodes(self) -> list[Node]:
        """Nodes with out-degree >= 2 — the only ones with free ratios."""
        return [node for node in self._succ if len(self._succ[node]) >= 2]

    def contains_dag(self, other: "Dag") -> bool:
        """True when every edge of ``other`` is also an edge of this DAG.

        Used to verify the augmentation invariant: the augmented DAG must
        contain the shortest-path DAG so that ECMP remains a feasible
        point of COYOTE's optimization (Section V-B).
        """
        return other.root == self.root and all(self.has_edge(u, v) for u, v in other.edges())

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._edges)

    def __repr__(self) -> str:
        return f"Dag(root={self.root!r}, edges={self.num_edges})"
