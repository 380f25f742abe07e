"""Min-congestion multicommodity flow — the ``OPTU(D)`` of Section III.

``OPTU(D)`` is the smallest maximum link utilization any per-destination
routing can achieve for demand matrix ``D``.  Aggregating commodities by
destination is lossless for this objective: any optimal aggregated flow
can be made acyclic (cycle removal never raises congestion), and an
acyclic destination flow induces per-destination splitting ratios
``phi_t(u, v) = g_t(u, v) / sum_w g_t(u, w)`` realizing exactly the same
loads.  The LP therefore has one flow variable per (destination, edge).

The same builder optionally restricts each destination's flow to a given
DAG, which yields the *demands-aware optimum within the DAGs* — the
normalizer used throughout the paper's evaluation (Section VI).

Because the constraint matrix depends only on the *support* of the
demand (which destinations receive traffic) and not on the volumes —
conservation right-hand sides carry the volumes, capacity rows have a
demand-independent RHS of 0 — a cutting-plane loop that normalizes many
matrices over the same topology re-solves one factorized LP with fresh
equality RHS instead of rebuilding it.  :class:`MinCongestionSolver`
caches one compiled structure per destination set and swaps ``b_eq``;
:func:`min_congestion` is the one-shot convenience wrapper over it.

Numerics: solves run at HiGHS's defaults (1e-7 feasibility; see
:mod:`repro.lp.backend`); extracted flows drop values below 1e-12,
matching the historical serial path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.demands.matrix import DemandMatrix
from repro.exceptions import InfeasibleError, RoutingError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.lp.model import Model, ReusableLP, Variable, add_flow_conservation


@dataclass
class MinCongestionResult:
    """Optimal congestion plus the witnessing destination flows.

    Attributes:
        alpha: the optimal maximum link utilization.
        flows: destination -> {edge -> flow volume}; only positive flows
            are stored.
    """

    alpha: float
    flows: dict[Node, dict[Edge, float]]

    def total_load(self, edge: Edge) -> float:
        return sum(per_dest.get(edge, 0.0) for per_dest in self.flows.values())


def allowed_edges(
    network: Network, destination: Node, dags: Mapping[Node, Dag] | None
) -> list[Edge]:
    """Edges commodity ``destination`` may use."""
    if dags is not None:
        dag = dags.get(destination)
        if dag is None:
            raise RoutingError(f"no DAG provided for destination {destination!r}")
        return dag.edges()
    # Unrestricted: every edge except those leaving the destination (flow
    # to t terminates at t, so such edges can only waste capacity).
    return [e for e in network.edges() if e[0] != destination]


def add_capacity_rows(
    model: Model,
    network: Network,
    flows: Iterable[Mapping[Edge, Variable]],
    alpha: Variable | None = None,
) -> None:
    """``sum(flow[e] for flow in flows) <= alpha * c_e`` per loaded finite edge.

    Without ``alpha`` the bound is ``c_e`` (congestion at most 1).
    """
    flows = list(flows)
    for edge in network.finite_capacity_edges():
        terms = [(flow[edge], 1.0) for flow in flows if edge in flow]
        if not terms:
            continue
        if alpha is None:
            model.add_le_terms(terms, network.capacity(*edge))
        else:
            model.add_le_terms([*terms, (alpha, -network.capacity(*edge))], 0.0)


class _Structure:
    """One compiled min-congestion LP for a fixed destination set."""

    def __init__(
        self,
        network: Network,
        destinations: tuple[Node, ...],
        dags: Mapping[Node, Dag] | None,
    ):
        model = Model("min-congestion")
        self.alpha = model.add_var("alpha")
        self.flow_vars: dict[Node, dict[Edge, Variable]] = {}
        # (destination, node) behind each conservation row, in row order —
        # the recipe for rebuilding b_eq from any demand matrix.
        self.eq_rows: list[tuple[Node, Node]] = []
        self.incident_nodes: dict[Node, set[Node]] = {}

        for t in destinations:
            edges = allowed_edges(network, t, dags)
            self.flow_vars[t] = {e: model.add_var(f"g[{t}][{e}]") for e in edges}
            nodes = add_flow_conservation(model, self.flow_vars[t], t)
            self.incident_nodes[t] = set(nodes)
            self.eq_rows.extend((t, node) for node in nodes)

        add_capacity_rows(model, network, self.flow_vars.values(), self.alpha)

        self.reusable: ReusableLP = model.compile().reusable()


class MinCongestionSolver:
    """Re-solves ``OPTU(D)`` over one topology by swapping equality RHS.

    One compiled constraint structure is cached per destination set
    (given the fixed ``network`` / ``dags``); solving a new demand with
    the same support only writes fresh conservation right-hand sides
    into the loaded model.  Results are identical to one-shot
    :func:`min_congestion` calls — every engine solve is isolated, so
    results are independent of solve order.
    """

    def __init__(self, network: Network, dags: Mapping[Node, Dag] | None = None):
        self.network = network
        self.dags = dict(dags) if dags is not None else None
        self._structures: dict[tuple[Node, ...], _Structure] = {}

    def _structure_for(self, destinations: tuple[Node, ...]) -> _Structure:
        structure = self._structures.get(destinations)
        if structure is None:
            structure = _Structure(self.network, destinations, self.dags)
            self._structures[destinations] = structure
        return structure

    def solve(self, demand: DemandMatrix) -> MinCongestionResult:
        """``OPTU(demand)``; see :func:`min_congestion` for semantics."""
        destinations = tuple(sorted(demand.targets(), key=str))
        structure = self._structure_for(destinations)

        demands_by_dest = {t: demand.demands_to(t) for t in destinations}
        for t in destinations:
            allowed = structure.incident_nodes[t]
            for source, volume in demands_by_dest[t].items():
                if volume > 0 and source not in allowed:
                    raise InfeasibleError(
                        f"demand {source!r} -> {t!r} cannot be routed: source has no "
                        f"allowed edges for this destination"
                    )

        b_eq = (
            np.array(
                [demands_by_dest[t].get(node, 0.0) for t, node in structure.eq_rows],
                dtype=float,
            )
            if structure.eq_rows
            else None
        )
        solution = structure.reusable.solve(
            {structure.alpha.index: 1.0}, b_eq=b_eq
        )

        flows: dict[Node, dict[Edge, float]] = {}
        for t in destinations:
            flows[t] = {
                e: solution.value(var)
                for e, var in structure.flow_vars[t].items()
                if solution.value(var) > 1e-12
            }
        return MinCongestionResult(alpha=float(solution.objective), flows=flows)


def min_congestion(
    network: Network,
    demand: DemandMatrix,
    dags: Mapping[Node, Dag] | None = None,
) -> MinCongestionResult:
    """Solve ``OPTU(D)`` (optionally restricted to per-destination DAGs).

    Raises:
        InfeasibleError: when some demand source cannot reach its
            destination through the allowed edges (e.g. a node outside
            the destination's DAG).
    """
    return MinCongestionSolver(network, dags).solve(demand)


def optimal_utilization(
    network: Network,
    demand: DemandMatrix,
    dags: Mapping[Node, Dag] | None = None,
) -> float:
    """Just the ``OPTU(D)`` value (convenience wrapper)."""
    if not demand:
        return 0.0
    return min_congestion(network, demand, dags).alpha


def is_routable(
    network: Network,
    demand: DemandMatrix,
    dags: Mapping[Node, Dag] | None = None,
    tolerance: float = 1e-9,
) -> bool:
    """True when the demand fits within capacities (``OPTU(D) <= 1``)."""
    if not demand:
        return True
    if not math.isfinite(demand.total()):
        return False
    return min_congestion(network, demand, dags).alpha <= 1.0 + tolerance
