"""Unconstrained (source-and-destination-based) oblivious routing.

The related-work baseline of Section VIII: Applegate & Cohen [11] showed
that *unconstrained* oblivious routing — forwarding may depend on both
source and destination, unlike IP — achieves remarkably low oblivious
ratios on real ISP topologies, but deploying it needs MPLS tunnels or
per-flow SDN rules.  COYOTE's whole premise is making do without that.

This module solves the Applegate-Cohen problem exactly, as one dualized
LP, so the repository can quantify the price of destination-based
forwarding (Theorem 4 says it can be Omega(|V|) in the worst case; on
backbones it is small):

    minimize   r
    s.t.       f routes one unit s->t for every pair (per-commodity flow)
               load_e(f, D) <= r * c_e   for every routable demand D

The second family has one row block per edge: the Theorem 5 / Applegate-
Cohen certificate that no routable demand loads the edge past ``r``
(see :func:`exact_unconstrained_oblivious`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.demands.matrix import Pair
from repro.exceptions import SolverError
from repro.graph.network import Edge, Network, Node
from repro.lp.model import LinExpr, Model, Variable, add_flow_conservation


@dataclass
class ObliviousFlowResult:
    """An unconstrained oblivious routing and its certification.

    Attributes:
        ratio: the LP-certified oblivious performance ratio.
        flows: (source, target) -> {edge -> fraction of the pair's
            demand routed on that edge} (a unit flow per pair).
    """

    ratio: float
    flows: dict[Pair, dict[Edge, float]]


def per_pair_flows(
    model: Model, network: Network, pairs: list[Pair]
) -> dict[Pair, dict[Edge, Variable]]:
    """One unit flow per pair: variables and conservation rows.

    Pair ``(s, t)`` may use every edge except those leaving ``t`` or
    entering ``s``.

    Raises:
        SolverError: a pair's source has no usable edge.
    """
    flow: dict[Pair, dict[Edge, Variable]] = {}
    for pair in pairs:
        s, t = pair
        flow[pair] = {
            e: model.add_var(f"f[{pair}][{e}]")
            for e in network.edges()
            if e[0] != t and e[1] != s
        }
        if s not in add_flow_conservation(model, flow[pair], t, demands={pair: 1.0}):
            raise SolverError(f"pair {pair!r} has no usable edges")
    return flow


def exact_unconstrained_oblivious(
    network: Network,
    pairs: list[Pair] | None = None,
) -> ObliviousFlowResult:
    """The exact Applegate-Cohen LP (dualized, all demands at once).

    One linear program certifies the oblivious ratio of the computed
    per-pair routing against *every* routable demand matrix:

        minimize r
        f routes one unit s->t per pair
        for every finite-capacity edge e:
            sum_h pi_e(h) * c_h <= r
            f_st(e) / c_e <= p_e(s, t)            for every pair
            p_e(s, k) <= p_e(s, j) + pi_e(j, k)   for every edge (j,k),
                                                   every source s
            p_e(s, s) = 0, pi_e >= 0, p_e >= 0

    Feasibility of the (pi_e, p_e) block is exactly the Theorem 5 /
    Applegate-Cohen certificate for edge ``e``, so the optimum is the
    true unconstrained oblivious ratio — no cutting planes, no
    degeneracy.  Problem size grows as |E|^2 + |E| * |V|^2 variables;
    fine for the evaluation backbones up to ~30 nodes.
    """
    if pairs is None:
        pairs = [(s, t) for s in network.nodes() for t in network.nodes() if s != t]
    model = Model("applegate-cohen")
    r = model.add_var("r")
    flow = per_pair_flows(model, network, pairs)
    sources = sorted({s for (s, _t) in pairs}, key=str)
    finite = network.finite_capacity_edges()
    for e in finite:
        capacity_e = network.capacity(*e)
        pi = {h: model.add_var(f"pi[{e}][{h}]") for h in finite}
        p: dict[tuple[Node, Node], Variable] = {}
        for s in sources:
            for node in network.nodes():
                if node != s:
                    p[(s, node)] = model.add_var(f"p[{e}][{s},{node}]")
        # R1: the certificate budget.
        budget = LinExpr()
        for h, var in pi.items():
            budget.add_term(var, network.capacity(*h))
        budget.add_term(r, -1.0)
        model.add_le(budget, 0.0)
        # R2: per-pair load fraction bounded by the potential.
        for pair in pairs:
            var = flow[pair].get(e)
            if var is not None:
                model.add_le(var * (1.0 / capacity_e) - p[pair], 0.0)
        # Triangle inequalities: p(s, k) <= p(s, j) + pi(j, k).
        for (j, k) in network.edges():
            pi_var = pi.get((j, k))
            for s in sources:
                lhs = LinExpr()
                if k != s:
                    lhs.add_term(p[(s, k)], 1.0)
                if j != s:
                    lhs.add_term(p[(s, j)], -1.0)
                if pi_var is not None:
                    lhs.add_term(pi_var, -1.0)
                if lhs.terms:
                    model.add_le(lhs, 0.0)

    model.minimize(r)
    solution = model.solve()
    flows = {
        pair: {e: solution.value(var) for e, var in per_pair.items() if solution.value(var) > 1e-9}
        for pair, per_pair in flow.items()
    }
    return ObliviousFlowResult(ratio=float(solution.objective), flows=flows)
