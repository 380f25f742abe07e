"""Theorem 5: the dual of the per-edge slave LP, one builder for three uses.

Theorem 5 (Appendix C) dualizes the slave LP of :mod:`repro.lp.worst_case`.
For a finite edge ``e``, per-pair flows ``f`` and a cone with per-pair
bounds ``[lo, hi]``, the block

    R1:  sum_h pi_e(h) * c_h <= r
    R2:  f_st(e) / c_e <= q_e(s, t) + a_e(s, t) - b_e(s, t)   every support pair
         q_e(j, t) <= q_e(k, t) + pi_e(j, k)         every witness edge (j, k) of t
         sum hi_st * a_e(s, t) <= sum lo_st * b_e(s, t)
         pi_e, a_e, b_e >= 0,  q_e free,  q_e(t, t) = 0

is feasible exactly when no matrix of the cone that the witness routes at
congestion <= 1 loads ``e`` past ``r`` under ``f``: ``pi_e``, ``q_e`` and
``a_e``/``b_e`` are the duals of the slave LP's capacity, conservation
and cone rows, over its support pairs and witness edges.  R2 holds for
every support pair, also one whose flow misses ``e``: in a margin cone
that row bounds ``b_e``.  The oblivious cone needs no case of its own:
every pair's bounds are ``[0, inf)``, so ``a_e`` and ``b_e`` vanish.

:func:`_edge_block` writes one block for three entry points, none of
which the sweep path imports (sizes grow as |E|^2 + |E| * |V|^2
variables, fine for backbones up to ~30 nodes):

* :func:`certified_ratios` — fixed flows (a routing's load coefficients),
  each edge's block minimized alone: the edge's worst-case utilization,
  the oracle's value by LP duality;
* :func:`exact_unconstrained_oblivious` — free per-pair unit flows over
  the network, every block sharing ``r``: the Applegate-Cohen oblivious
  routing, the related-work baseline of Section VIII, exactly;
* :func:`in_dag_lower_bound` — free per-pair unit flows inside the DAGs:
  no routing inside them, destination-based or not, has a lower ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.demands.matrix import Pair
from repro.demands.uncertainty import UncertaintySet, oblivious_pairs
from repro.exceptions import SolverError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.lp.mcf import allowed_edges
from repro.lp.model import LinExpr, Model, Variable, add_flow_conservation
from repro.lp.worst_case import adversary_pairs


@dataclass
class ObliviousFlowResult:
    """Per-pair unit flows and the ratio Theorem 5 certifies for them.

    Attributes:
        ratio: the LP-certified performance ratio over the cone.
        flows: (source, target) -> {edge -> fraction of the pair's
            demand routed on that edge} (a unit flow per pair).
    """

    ratio: float
    flows: dict[Pair, dict[Edge, float]]

    def load_coefficients(self) -> dict[Edge, dict[Pair, float]]:
        """The flows per edge, in :meth:`Routing.load_coefficients`' form."""
        coefficients: dict[Edge, dict[Pair, float]] = {}
        for pair, per_pair in self.flows.items():
            for edge, fraction in per_pair.items():
                coefficients.setdefault(edge, {})[pair] = fraction
        return coefficients


def _edge_block(
    model: Model,
    network: Network,
    dags: Mapping[Node, Dag] | None,
    uncertainty: UncertaintySet,
    pairs: list[Pair],
    edge: Edge,
    flow: Mapping[Pair, Variable | float],
) -> list[tuple[Variable, float]]:
    """Write ``edge``'s block for ``flow`` (support pair -> its fraction on
    ``edge``, a constant or a variable); return R1's left side as terms."""
    pi = {h: model.add_var(f"pi[{edge}][{h}]") for h in network.finite_capacity_edges()}
    q: dict[tuple[Node, Node], Variable] = {}
    for t in dict.fromkeys(t for (_s, t) in pairs):
        for (j, k) in allowed_edges(network, t, dags):
            for v in (j, k):
                if v != t and (v, t) not in q:
                    q[(v, t)] = model.add_var(f"q[{edge}][{v},{t}]", lower=-math.inf)
            # q(t, t) = 0 and an infinite edge's length have no variable.
            row = [(q.get((j, t)), 1.0), (q.get((k, t)), -1.0), (pi.get((j, k)), -1.0)]
            model.add_le_terms([(var, coef) for var, coef in row if var is not None], 0.0)

    cone: list[tuple[Variable, float]] = []
    for pair in pairs:
        slack = LinExpr.of(q.get(pair, 0.0))  # 0: no witness edge touches s
        lo, hi = uncertainty.bounds[pair]
        if hi < math.inf:
            a = model.add_var(f"a[{edge}][{pair}]")
            slack.add_term(a, 1.0)
            cone.append((a, hi))
        if lo > 0:
            b = model.add_var(f"b[{edge}][{pair}]")
            slack.add_term(b, -1.0)
            cone.append((b, -lo))
        model.add_le(LinExpr.of(flow.get(pair, 0.0)) * (1.0 / network.capacity(*edge)), slack)
    if cone:
        model.add_le_terms(cone, 0.0)
    return [(var, network.capacity(*h)) for h, var in pi.items()]


def certified_ratios(
    network: Network,
    dags: Mapping[Node, Dag] | None,
    uncertainty: UncertaintySet,
    coefficients: Mapping[Edge, Mapping[Pair, float]],
) -> dict[Edge, float]:
    """Theorem 5's certificate of fixed per-pair flows, per edge.

    ``coefficients`` maps an edge to the fraction of each pair's demand
    it carries (``Routing.load_coefficients`` or
    :meth:`ObliviousFlowResult.load_coefficients`).  Each finite edge on
    which a support pair has a positive fraction gets the least ``r`` its
    block admits, one LP per edge: by LP duality, its worst-case
    utilization under a :class:`~repro.lp.worst_case.WorstCaseOracle` on
    (``network``, ``uncertainty``, ``dags``).  Other edges (value 0) are
    left out.
    """
    pairs = adversary_pairs(network, uncertainty, dags)
    ratios: dict[Edge, float] = {}
    for edge in network.finite_capacity_edges():
        flow = coefficients.get(edge, {})
        if not any(flow.get(pair, 0.0) > 0.0 for pair in pairs):
            continue
        model = Model(f"certificate[{edge}]")
        budget = _edge_block(model, network, dags, uncertainty, pairs, edge, flow)
        model.minimize(LinExpr.weighted_sum(budget))
        ratios[edge] = model.solve().objective
    return ratios


def _best_flows(
    network: Network, dags: Mapping[Node, Dag] | None, uncertainty: UncertaintySet
) -> ObliviousFlowResult:
    """The per-pair unit flows with the least ratio Theorem 5 certifies:
    one LP, every edge's block bounded by one ``r``.  Pair ``(s, t)`` may
    use every witness edge of ``t`` except those entering ``s``.

    Raises:
        SolverError: a pair of the cone has no usable edge out of its source.
    """
    pairs = list(uncertainty.pairs)
    model = Model("theorem5")
    r = model.add_var("r")
    flow: dict[Pair, dict[Edge, Variable]] = {}
    for pair in pairs:
        s, t = pair
        edges = [e for e in allowed_edges(network, t, dags) if e[1] != s]
        flow[pair] = {e: model.add_var(f"f[{pair}][{e}]") for e in edges}
        if s not in add_flow_conservation(model, flow[pair], t, demands={pair: 1.0}):
            raise SolverError(f"pair {pair!r} has no usable edges")
    for edge in network.finite_capacity_edges():
        on_edge = {pair: per_pair[edge] for pair, per_pair in flow.items() if edge in per_pair}
        budget = _edge_block(model, network, dags, uncertainty, pairs, edge, on_edge)
        model.add_le_terms([*budget, (r, -1.0)], 0.0)
    model.minimize(r)
    solution = model.solve()
    flows = {
        pair: {e: solution.value(var) for e, var in per_pair.items() if solution.value(var) > 1e-9}
        for pair, per_pair in flow.items()
    }
    return ObliviousFlowResult(ratio=float(solution.objective), flows=flows)


def exact_unconstrained_oblivious(
    network: Network,
    pairs: list[Pair] | None = None,
) -> ObliviousFlowResult:
    """The exact Applegate-Cohen LP: the per-pair routing with the least
    ratio against every demand on ``pairs`` (default: every ordered
    pair), normalized by the unrestricted optimum.  Its forwarding may
    depend on source and destination, unlike IP's, so it prices
    destination-based forwarding (Omega(|V|) at worst, by Theorem 4)."""
    if pairs is None:
        pairs = [(s, t) for s in network.nodes() for t in network.nodes() if s != t]
    return _best_flows(network, None, oblivious_pairs(pairs))


def in_dag_lower_bound(
    network: Network, dags: Mapping[Node, Dag], uncertainty: UncertaintySet
) -> ObliviousFlowResult:
    """The per-pair flows inside the DAGs with the least ratio over the
    cone, normalized by the within-DAG optimum: no routing inside the
    DAGs has a lower ratio (tests only)."""
    return _best_flows(network, dags, uncertainty)
