"""The local-search DAG-generation heuristic (Algorithm 1, Appendix A).

The algorithm maintains a set ``D`` of "critical" demand matrices and
alternates two steps until the ECMP utilization over ``D`` drops below a
bound ``B`` (or a round budget runs out):

1. *Oracle step* — compute the demand matrix that maximizes the link
   utilization of ECMP under the current weights (the slave LP with a
   network-wide witness, normalizing against the unrestricted optimum,
   as in the oblivious-OSPF work of Altin et al. [12]); add it to ``D``.
2. *Weight step* — Fortz-Thorup-style neighborhood search: repeatedly
   change a single link weight when it lowers the worst ECMP utilization
   across the matrices in ``D``.  Following the paper's adaptation we
   optimize the *maximum* link utilization (not Fortz-Thorup's smoothed
   cost), and the neighborhood focuses on links around the most
   congested edge ("reduce utilization at the most congested node by
   increasing the path diversity locally").

The result is a set of integer link weights whose shortest-path DAGs are
simultaneously good for every critical matrix; COYOTE then augments the
DAGs and re-optimizes the in-DAG splitting on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DEFAULT_CONFIG, SolverConfig
from repro.demands.matrix import DemandMatrix
from repro.demands.uncertainty import UncertaintySet, oblivious_set
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import integer_scaled_weights, inverse_capacity_weights
from repro.exceptions import SolverError
from repro.graph.network import Edge, Network
from repro.kernel.delta import EcmpDeltaEvaluator, ecmp_max_utilization
from repro.lp.worst_case import WorstCaseOracle, normalize_to_unit_optimum
from repro.runner.timing import phase

#: Integer OSPF weights explored by the neighborhood search, as in
#: Fortz & Thorup's experiments (they use [1, 20]).
MAX_WEIGHT = 20


@dataclass
class LocalSearchResult:
    """Outcome of Algorithm 1.

    Attributes:
        weights: the final integer link weights.
        matrices: the accumulated critical demand matrices (normalized to
            unit unrestricted optimum).
        utilization: final worst ECMP utilization across ``matrices``.
        oracle_ratio: final oracle-certified worst-case ECMP ratio.
        rounds: outer rounds executed.
        history: oracle ratio after each outer round.
    """

    weights: dict[Edge, int]
    matrices: list[DemandMatrix]
    utilization: float
    oracle_ratio: float
    rounds: int
    history: list[float] = field(default_factory=list)


def _candidate_values(current: int) -> list[int]:
    """Neighbor weights for a single-link move (clamped to [1, MAX_WEIGHT])."""
    raw = {
        current - 2,
        current - 1,
        current + 1,
        current + 2,
        max(1, current // 2),
        current * 2,
        1,
        MAX_WEIGHT,
    }
    return sorted(v for v in raw if 1 <= v <= MAX_WEIGHT and v != current)


def _focus_from_utilization(
    network: Network, utilization: dict[Edge, float]
) -> list[Edge]:
    """The search neighborhood: edges incident to the most congested links.

    Ties on utilization break lexicographically (not by dict insertion
    order): the delta evaluator accumulates loads in edge-index order
    while :func:`_focus_edges` (the reference search's) follows routing
    load order, and both searches must explore identical neighborhoods
    to stay move-identical.
    """
    if not utilization:
        return network.edges()
    hot = sorted(utilization, key=lambda edge: (-utilization[edge], str(edge)))[:3]
    endpoints = {node for edge in hot for node in edge}
    focus = [
        e for e in network.edges() if e[0] in endpoints or e[1] in endpoints
    ]
    return focus or network.edges()


def _focus_edges(
    network: Network,
    weights: dict[Edge, float],
    matrices: list[DemandMatrix],
) -> list[Edge]:
    """Edges incident to the most congested links (the search neighborhood)."""
    routing = ecmp_routing(network, weights)
    utilization: dict[Edge, float] = {}
    for dm in matrices:
        loads = routing.link_loads(dm)
        for edge, flow in loads.items():
            capacity = network.capacity(*edge)
            utilization[edge] = max(utilization.get(edge, 0.0), flow / capacity)
    return _focus_from_utilization(network, utilization)


def weight_search(
    network: Network,
    weights: dict[Edge, int],
    matrices: list[DemandMatrix],
    config: SolverConfig = DEFAULT_CONFIG,
    max_moves: int = 12,
    tabu_length: int = 4,
) -> dict[Edge, int]:
    """FORTZTHORUP(G, D, c): single-weight moves minimizing worst utilization.

    Every candidate move is scored through
    :class:`~repro.kernel.delta.EcmpDeltaEvaluator` — only destinations
    whose shortest-path DAG a single-weight change can touch are
    re-solved; everything else reuses committed arrays.
    :func:`_weight_search_reference` is its test oracle.  The search
    records the ``"weight_step"`` timing sub-phase (nested inside the
    owning cell's "solve" phase, so it is *part of* — not additive to —
    solve time).
    """
    if not matrices:
        return dict(weights)
    with phase("weight_step"):
        return _weight_search_kernel(network, weights, matrices, max_moves, tabu_length)


def _weight_search_reference(
    network: Network,
    weights: dict[Edge, int],
    matrices: list[DemandMatrix],
    max_moves: int,
    tabu_length: int,
) -> dict[Edge, int]:
    """The delta evaluator's test oracle: the same moves, scored from scratch.

    Each candidate is evaluated by a fresh
    :func:`~repro.kernel.delta.ecmp_max_utilization` (a full batched SPF
    and propagation on the kernel, no committed state) and the focus
    comes from :meth:`Routing.link_loads`, so agreement with
    :func:`_weight_search_kernel` pins the delta screening, pruning and
    commits.  Tests call it by name; no production path does.
    """
    current = dict(weights)
    best_value = ecmp_max_utilization(network, current, matrices)
    tabu: list[Edge] = []
    for _ in range(max_moves):
        focus = _focus_edges(network, current, matrices)
        move: tuple[Edge, int] | None = None
        move_value = best_value
        for edge in focus:
            if edge in tabu:
                continue
            original = current[edge]
            for value in _candidate_values(original):
                current[edge] = value
                candidate = ecmp_max_utilization(network, current, matrices)
                if candidate < move_value - 1e-9:
                    move_value, move = candidate, (edge, value)
            current[edge] = original
        if move is None:
            break
        edge, value = move
        current[edge] = value
        best_value = move_value
        tabu.append(edge)
        if len(tabu) > tabu_length:
            tabu.pop(0)
    return current


def _weight_search_kernel(
    network: Network,
    weights: dict[Edge, int],
    matrices: list[DemandMatrix],
    max_moves: int,
    tabu_length: int,
) -> dict[Edge, int]:
    """Delta-evaluated neighborhood search (same moves, array state)."""
    evaluator = EcmpDeltaEvaluator(
        network, {e: float(w) for e, w in weights.items()}, matrices
    )
    current = dict(weights)
    best_value = evaluator.utilization()
    tabu: list[Edge] = []
    for _ in range(max_moves):
        focus = _focus_from_utilization(network, evaluator.per_edge_utilization())
        move: tuple[Edge, int] | None = None
        chosen = None
        move_value = best_value
        for edge in focus:
            if edge in tabu:
                continue
            for value in _candidate_values(current[edge]):
                # prune_above: a candidate whose load lower bound cannot
                # beat the incumbent threshold is rejected without a
                # re-solve — exactly the moves the full evaluation's
                # `< move_value - 1e-9` test would reject anyway.
                candidate = evaluator.evaluate_move(
                    edge, float(value), prune_above=move_value - 1e-9
                )
                if candidate is None:
                    continue
                if candidate.utilization < move_value - 1e-9:
                    move_value, move, chosen = candidate.utilization, (edge, value), candidate
        if move is None:
            break
        edge, value = move
        current[edge] = value
        evaluator.commit(chosen)
        best_value = move_value
        tabu.append(edge)
        if len(tabu) > tabu_length:
            tabu.pop(0)
    return current


def local_search_weights(
    network: Network,
    uncertainty: UncertaintySet | None = None,
    bound: float = 1.05,
    config: SolverConfig = DEFAULT_CONFIG,
) -> LocalSearchResult:
    """Algorithm 1: iterate worst-case oracle + weight search.

    Args:
        network: the capacitated topology.
        uncertainty: demand set the adversary draws from (defaults to the
            fully oblivious set over all node pairs).
        bound: the termination bound ``B`` on normalized utilization.
        config: iteration caps (``max_adversarial_rounds`` bounds the
            outer loop).
    """
    if uncertainty is None:
        uncertainty = oblivious_set(network.nodes())
    weights = integer_scaled_weights(inverse_capacity_weights(network), MAX_WEIGHT)
    oracle = WorstCaseOracle(network, uncertainty, dags=None, config=config)
    from repro.lp.mcf import MinCongestionSolver

    mcf_solver = MinCongestionSolver(network)
    matrices: list[DemandMatrix] = []
    history: list[float] = []
    rounds = 0
    best_weights = dict(weights)
    best_ratio = float("inf")
    for rounds in range(1, config.max_adversarial_rounds + 1):
        routing = ecmp_routing(network, weights)
        result = oracle.evaluate(routing)
        history.append(result.ratio)
        if result.ratio < best_ratio:
            best_ratio, best_weights = result.ratio, dict(weights)
        if result.demand is not None and result.demand:
            matrices.append(
                normalize_to_unit_optimum(network, result.demand, solver=mcf_solver)
            )
        if result.ratio <= bound:
            break
        improved = weight_search(network, weights, matrices, config)
        if improved == weights and rounds > 1:
            break  # stuck: more rounds would re-derive the same point
        weights = improved
    if not history:
        raise SolverError("local search executed zero rounds")
    # Return the best-seen weights: the last weight-search step optimizes
    # against the finite critical set and may regress the full-set ratio.
    utilization = ecmp_max_utilization(network, best_weights, matrices)
    return LocalSearchResult(
        weights=best_weights,
        matrices=matrices,
        utilization=utilization,
        oracle_ratio=best_ratio,
        rounds=rounds,
        history=history,
    )
