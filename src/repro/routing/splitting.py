"""The :class:`Routing` configuration: per-destination DAGs + splitting ratios.

This is the ``phi`` object of Section III.  For each destination ``t`` it
stores a forwarding DAG and, for each DAG node with out-degree >= 1, the
fraction of ``t``-bound flow forwarded on each out-edge.  Ratios must be
nonnegative and sum to one at every non-root DAG node (a node with a
single out-edge implicitly forwards everything there).
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.demands.matrix import DemandMatrix
from repro.exceptions import RoutingError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.graph.paths import expected_path_lengths
from repro.routing.propagation import load_coefficients, propagate_to_destination

_SUM_TOLERANCE = 1e-6


class Routing:
    """A per-destination (PD) routing configuration.

    Attributes:
        dags: destination -> forwarding DAG rooted there.
        ratios: destination -> {DAG edge -> splitting fraction}.
        name: label used in experiment tables ("ECMP", "COYOTE", ...).
    """

    def __init__(
        self,
        dags: Mapping[Node, Dag],
        ratios: Mapping[Node, Mapping[Edge, float]],
        name: str = "routing",
        validate: bool = True,
    ):
        self.dags: dict[Node, Dag] = dict(dags)
        self.ratios: dict[Node, dict[Edge, float]] = {
            t: dict(r) for t, r in ratios.items()
        }
        self.name = name
        if validate:
            self.validate()

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check ratio nonnegativity, support, and per-node normalization."""
        for t, dag in self.dags.items():
            if dag.root != t:
                raise RoutingError(f"DAG stored under {t!r} is rooted at {dag.root!r}")
            ratios = self.ratios.get(t, {})
            for (u, v), value in ratios.items():
                if value < -_SUM_TOLERANCE:
                    raise RoutingError(f"negative ratio {value} on {(u, v)!r} toward {t!r}")
                if value > _SUM_TOLERANCE and not dag.has_edge(u, v):
                    raise RoutingError(
                        f"ratio on {(u, v)!r} toward {t!r} is not a DAG edge"
                    )
            for node in dag.nodes():
                if node == t:
                    continue
                total = sum(ratios.get((node, head), 0.0) for head in dag.out_neighbors(node))
                if not math.isclose(total, 1.0, rel_tol=0, abs_tol=_SUM_TOLERANCE * 10):
                    raise RoutingError(
                        f"ratios out of node {node!r} toward {t!r} sum to {total:.9f}, expected 1"
                    )

    # -- propagation ----------------------------------------------------------

    def destination_ratios(self, t: Node) -> dict[Edge, float]:
        if t not in self.dags:
            raise RoutingError(f"routing {self.name!r} has no DAG for destination {t!r}")
        return dict(self.ratios.get(t, {}))

    def link_loads(self, demand: DemandMatrix) -> dict[Edge, float]:
        """Total flow per edge when routing ``demand`` with this configuration.

        One vectorized level sweep over every destination DAG
        (:mod:`repro.kernel.coefficients`); :meth:`link_loads_reference`
        is its test oracle.  Semantics changes here require a
        ``CACHE_VERSION`` bump in :mod:`repro.runner.spec`.
        """
        from repro.kernel.coefficients import link_loads as kernel_link_loads

        targets = demand.targets()
        missing = [t for t in targets if t not in self.dags]
        if missing:
            raise RoutingError(
                f"no DAG for destination {missing[0]!r} in routing {self.name!r}"
            )
        if not targets:
            return {}
        network = self.dags[next(iter(targets))].network
        return kernel_link_loads(network, self.dags, self.ratios, demand)

    def link_loads_reference(self, demand: DemandMatrix) -> dict[Edge, float]:
        """Pure-Python per-destination propagation (the kernel's test oracle)."""
        loads: dict[Edge, float] = {}
        for t in demand.targets():
            if t not in self.dags:
                raise RoutingError(f"no DAG for destination {t!r} in routing {self.name!r}")
            _, edge_flows = propagate_to_destination(
                self.dags[t], self.ratios.get(t, {}), demand.demands_to(t)
            )
            for edge, flow in edge_flows.items():
                loads[edge] = loads.get(edge, 0.0) + flow
        return loads

    def max_link_utilization(self, demand: DemandMatrix, network: Network) -> float:
        """``MxLU(phi, D)``: the congestion of the most utilized link."""
        loads = self.link_loads(demand)
        worst = 0.0
        for edge, flow in loads.items():
            capacity = network.capacity(*edge)
            if math.isfinite(capacity):
                worst = max(worst, flow / capacity)
        return worst

    def load_coefficients(
        self, pairs: list[tuple[Node, Node]]
    ) -> dict[Edge, dict[tuple[Node, Node], float]]:
        """Per-edge load as linear coefficients over the demand pairs."""
        return load_coefficients(self.dags, self.ratios, pairs)

    # -- path metrics -----------------------------------------------------------

    def expected_hops(self, source: Node, target: Node) -> float:
        """Expected hop count of the ``source -> target`` traffic."""
        dag = self.dags.get(target)
        if dag is None:
            raise RoutingError(f"no DAG for destination {target!r}")
        if not dag.has_node(source):
            raise RoutingError(f"{source!r} is not in the DAG rooted at {target!r}")
        lengths = expected_path_lengths(dag, self.ratios.get(target, {}))
        return lengths[source]

    def average_stretch_against(self, baseline: "Routing") -> float:
        """Average over all pairs of expected-hops ratio vs. ``baseline``.

        This is Fig. 11's "average stretch": expected path length of this
        routing divided by the baseline's (ECMP), averaged across pairs
        present in both configurations.
        """
        ratios: list[float] = []
        for t, dag in self.dags.items():
            if t not in baseline.dags:
                continue
            ours = expected_path_lengths(dag, self.ratios.get(t, {}))
            theirs = expected_path_lengths(
                baseline.dags[t], baseline.ratios.get(t, {})
            )
            for node in dag.nodes():
                if node == t or node not in theirs:
                    continue
                if theirs[node] > 0:
                    ratios.append(ours[node] / theirs[node])
        if not ratios:
            raise RoutingError("no comparable pairs between the two routings")
        return sum(ratios) / len(ratios)

    # -- editing ----------------------------------------------------------------

    def with_ratios(
        self, new_ratios: Mapping[Node, Mapping[Edge, float]], name: str | None = None
    ) -> "Routing":
        """Same DAGs, different ratios (used by the optimizers)."""
        return Routing(self.dags, new_ratios, name=name or self.name)

    def renormalized(self, floor: float = 0.0) -> "Routing":
        """Clamp tiny/negative ratios to ``floor`` and rescale rows to sum 1.

        Numerical optimizers can leave ratios at ``1e-12`` or ``-1e-15``;
        this cleans them up into a valid configuration.
        """
        cleaned: dict[Node, dict[Edge, float]] = {}
        for t, dag in self.dags.items():
            ratios = self.ratios.get(t, {})
            fixed: dict[Edge, float] = {}
            for node in dag.nodes():
                if node == t:
                    continue
                heads = dag.out_neighbors(node)
                raw = [max(ratios.get((node, h), 0.0), floor) for h in heads]
                total = sum(raw)
                if total <= 0:
                    raw = [1.0] * len(heads)
                    total = float(len(heads))
                for head, value in zip(heads, raw):
                    fixed[(node, head)] = value / total
            cleaned[t] = fixed
        return Routing(self.dags, cleaned, name=self.name)

    def __repr__(self) -> str:
        return f"Routing({self.name!r}, destinations={len(self.dags)})"


def uniform_ratios(dag: Dag) -> dict[Edge, float]:
    """Equal split over each node's DAG out-edges (ECMP-style within a DAG)."""
    ratios: dict[Edge, float] = {}
    for node in dag.nodes():
        if node == dag.root:
            continue
        heads = dag.out_neighbors(node)
        if not heads:
            continue
        share = 1.0 / len(heads)
        for head in heads:
            ratios[(node, head)] = share
    return ratios
