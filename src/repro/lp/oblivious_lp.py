"""Unconstrained (source-and-destination-based) oblivious routing.

The related-work baseline of Section VIII: Applegate & Cohen [11] showed
that *unconstrained* oblivious routing — forwarding may depend on both
source and destination, unlike IP — achieves remarkably low oblivious
ratios on real ISP topologies, but deploying it needs MPLS tunnels or
per-flow SDN rules.  COYOTE's whole premise is making do without that.

This module implements the Applegate-Cohen master LP in cutting-plane
form so the repository can quantify the price of destination-based
forwarding (Theorem 4 says it can be Omega(|V|) in the worst case; on
backbones it is small):

    minimize   r
    s.t.       f routes one unit s->t for every pair (per-commodity flow)
               load_e(f, D) <= r * c_e   for every routable demand D

The separation oracle for the second family is the same slave LP as the
destination-based case, except the fixed routing's load coefficients
come from per-*pair* flows instead of per-destination splits, and the
witness flow is unrestricted.  We reuse :class:`repro.lp.worst_case`'s
compiled system by passing the per-pair coefficients directly
(:meth:`~repro.lp.worst_case.WorstCaseOracle.evaluate_coefficients`), on
the loop COYOTE runs on (:func:`repro.lp.cutting_plane.cutting_plane`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.config import DEFAULT_CONFIG, SolverConfig
from repro.demands.matrix import DemandMatrix, Pair
from repro.demands.uncertainty import UncertaintySet, oblivious_set
from repro.exceptions import SolverError
from repro.graph.network import Edge, Network, Node
from repro.lp.cutting_plane import cutting_plane
from repro.lp.mcf import MinCongestionSolver
from repro.lp.model import LinExpr, Model, Solution, Variable, add_flow_conservation
from repro.lp.worst_case import WorstCaseOracle, normalize_to_unit_optimum


@dataclass
class ObliviousFlowResult:
    """An unconstrained oblivious routing and its certification.

    Attributes:
        ratio: oracle-certified oblivious performance ratio.
        flows: (source, target) -> {edge -> fraction of the pair's
            demand routed on that edge} (a unit flow per pair).
        rounds: cutting-plane rounds used.
        stop: why the cutting-plane loop ended (``"converged"``,
            ``"cycling"`` or ``"round-cap"``; see
            :class:`~repro.lp.cutting_plane.CuttingPlaneResult`); the
            exact LP reports ``"converged"``.
        history: (master objective, oracle ratio) per round.
    """

    ratio: float
    flows: dict[Pair, dict[Edge, float]]
    rounds: int
    stop: str
    history: list[tuple[float, float]] = field(default_factory=list)


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


def _master_lp(
    network: Network,
    pairs: list[Pair],
    matrices: list[DemandMatrix],
) -> tuple[float, dict[Pair, dict[Edge, float]]]:
    """Best per-pair routing against a finite demand set (exact LP)."""
    model = Model("oblivious-master")
    r = model.add_var("r")
    flow = per_pair_flows(model, network, pairs)
    for dm in matrices:
        for edge in network.finite_capacity_edges():
            load = LinExpr()
            for pair in pairs:
                var = flow[pair].get(edge)
                volume = dm.get(*pair)
                if var is not None and volume > 0:
                    load.add_term(var, volume)
            if load.terms:
                load.add_term(r, -network.capacity(*edge))
                model.add_le(load, 0.0)
    model.minimize(r)
    solution = model.solve()
    return float(solution.objective), _flow_values(solution, flow, 1e-12)


def _flow_values(
    solution: Solution, flow: dict[Pair, dict[Edge, Variable]], floor: float
) -> dict[Pair, dict[Edge, float]]:
    """Each pair's solved flow, values at or below ``floor`` dropped."""
    return {
        pair: {e: solution.value(var) for e, var in per_pair.items() if solution.value(var) > floor}
        for pair, per_pair in flow.items()
    }


def _pair_coefficients(
    flows: Mapping[Pair, Mapping[Edge, float]]
) -> dict[Edge, dict[Pair, float]]:
    """Per-edge load coefficients of a fixed per-pair routing."""
    coefficients: dict[Edge, dict[Pair, float]] = {}
    for pair, per_pair in flows.items():
        for edge, fraction in per_pair.items():
            if fraction > 0:
                coefficients.setdefault(edge, {})[pair] = fraction
    return coefficients


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
    return ObliviousFlowResult(
        ratio=float(solution.objective),
        flows=_flow_values(solution, flow, 1e-9),
        rounds=1,
        stop="converged",
    )


def optimize_unconstrained_oblivious(
    network: Network,
    uncertainty: UncertaintySet | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> ObliviousFlowResult:
    """Applegate-Cohen oblivious routing via cutting planes.

    Args:
        network: the capacitated topology.
        uncertainty: demand cone (default: fully oblivious on all pairs).
        config: ``max_adversarial_rounds`` bounds the loop.

    Returns:
        The optimized per-pair routing with its certified ratio; on ISP
        topologies the ratio should be close to the literature's ~1-2
        range, far below the destination-based optimum of Theorem 4's
        worst cases.
    """
    if uncertainty is None:
        uncertainty = oblivious_set(network.nodes())
    pairs = [
        (s, t)
        for (s, t) in uncertainty.pairs
        if network.has_node(s) and network.has_node(t)
    ]
    oracle = WorstCaseOracle(network, uncertainty, dags=None, config=config)
    # Shared across every cut: normalization re-solves one factorized
    # unrestricted min-congestion LP with fresh RHS per round.
    mcf_solver = MinCongestionSolver(network)

    def normalize(dm: DemandMatrix) -> DemandMatrix:
        return normalize_to_unit_optimum(network, dm, solver=mcf_solver)

    loop = cutting_plane(
        lambda matrices: _master_lp(network, pairs, matrices),
        lambda flows: oracle.evaluate_coefficients(_pair_coefficients(flows)),
        normalize,
        [normalize(DemandMatrix({pair: 1.0 for pair in pairs}))],
        config,
        dedupe_tolerance=1e-9,
    )
    return ObliviousFlowResult(
        ratio=loop.oracle.ratio,
        flows=loop.best,
        rounds=loop.rounds,
        stop=loop.stop,
        history=loop.history,
    )
