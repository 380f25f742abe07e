"""Demand-polytope utilities (Section IV's proof machinery).

The hardness proofs restrict attention to demand matrices that are
(a) routable within the edge capacities and (b) *non-dominated*: no
other routable matrix is entry-wise at least as large.  These helpers
make those notions executable — the Theorem 1 tests use them to check
that the reduction's extreme demands D1/D2 are exactly the relevant
vertices, and they are generally useful for constructing adversarial
demand sets.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.demands.matrix import DemandMatrix, Pair
from repro.exceptions import DemandError
from repro.graph.network import Network
from repro.lp.mcf import add_capacity_rows, allowed_edges, min_congestion
from repro.lp.model import LinExpr, Model, add_flow_conservation


def dominates(a: DemandMatrix, b: DemandMatrix, tolerance: float = 1e-9) -> bool:
    """True when ``a`` is entry-wise >= ``b`` and strictly larger somewhere."""
    pairs = set(a.pairs()) | set(b.pairs())
    strictly = False
    for pair in pairs:
        va, vb = a.get(*pair), b.get(*pair)
        if va < vb - tolerance:
            return False
        if va > vb + tolerance:
            strictly = True
    return strictly


def non_dominated(matrices: Iterable[DemandMatrix]) -> list[DemandMatrix]:
    """The subset of matrices not dominated by any other in the list."""
    matrices = list(matrices)
    survivors = []
    for i, candidate in enumerate(matrices):
        if not any(
            dominates(other, candidate)
            for j, other in enumerate(matrices)
            if j != i
        ):
            survivors.append(candidate)
    return survivors


def max_routable_scaling(network: Network, demand: DemandMatrix) -> float:
    """Largest ``lambda`` such that ``lambda * demand`` is routable.

    By scale invariance this is ``1 / OPTU(demand)``; the paper's proofs
    repeatedly scale demands onto the boundary of the routable polytope.
    """
    if not demand:
        raise DemandError("cannot scale an empty demand matrix")
    alpha = min_congestion(network, demand).alpha
    if alpha <= 0:
        raise DemandError("demand has zero optimal congestion; scaling unbounded")
    return 1.0 / alpha


def saturate(network: Network, demand: DemandMatrix) -> DemandMatrix:
    """Scale a demand matrix onto the routable polytope's boundary."""
    return demand.scaled(max_routable_scaling(network, demand))


def max_demand_along(
    network: Network,
    direction: Sequence[Pair],
    fixed: DemandMatrix | None = None,
) -> DemandMatrix:
    """Maximize total demand over the given pairs within capacities.

    Solves ``max sum_{p in direction} d_p`` subject to the joint demand
    (the optimized pairs plus the ``fixed`` background) being routable at
    congestion <= 1.  Used to find polytope vertices like Theorem 1's
    ``D1 = (2 SUM, 0)``.
    """
    if not direction:
        raise DemandError("need at least one pair to optimize")
    model = Model("max-demand")
    demand_vars = {pair: model.add_var(f"d[{pair}]") for pair in direction}
    background = fixed or DemandMatrix({})
    targets = sorted({t for (_s, t) in direction} | background.targets(), key=str)
    fixed_demands = dict(background.items())
    flow = {}
    for t in targets:
        flow[t] = {e: model.add_var(f"g[{t}][{e}]") for e in allowed_edges(network, t, None)}
        add_flow_conservation(model, flow[t], t, fixed_demands, demand_vars)
    add_capacity_rows(model, network, flow.values())
    objective = LinExpr()
    for var in demand_vars.values():
        objective.add_term(var, 1.0)
    model.maximize(objective)
    solution = model.solve()
    combined = {
        pair: solution.value(var)
        for pair, var in demand_vars.items()
        if solution.value(var) > 1e-12
    }
    for pair, value in background.items():
        combined[pair] = combined.get(pair, 0.0) + value
    return DemandMatrix(combined)
