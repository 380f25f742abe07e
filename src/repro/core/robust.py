"""Robust splitting optimization: COYOTE on the adversarial cutting-plane loop.

The paper handles infinite demand sets through dualization (Appendix C).
We realize the same guarantee in oracle form, the standard equivalent for
robust optimization, on the shared loop
:func:`repro.lp.cutting_plane.cutting_plane`.  Its master here is the
smoothed-minimax splitting optimizer
(:func:`~repro.core.softmax_opt.optimize_splitting_softmax`) over a
*finite* set ``T`` of demand matrices (each normalized to unit
within-DAG optimum, so the raw worst utilization equals the performance
ratio), warm-started from the previous round; its oracle is the slave
LP over the *whole* cone.  The paper's GP finite-set solver
(:mod:`repro.core.gp`) solves the same master problem and is called
directly, never from this loop.

The oracle ratio is an upper bound on the optimal robust ratio
achievable with these DAGs.  The finite-set objective is *not* a lower
bound on it: the inner optimizer is local, so a round's objective can
even exceed the certified ratio of an earlier routing.  Their gap says
how far the routing's worst case over the whole cone lies above its
worst case over ``T``, not how far it is from the optimum.  The returned
routing always carries the oracle-certified ratio.

A list of fallback routings (e.g. plain ECMP) can be supplied: each is
checked against the oracle at the end and the best configuration wins,
which preserves the paper's "no worse than ECMP" guarantee even if the
numerical optimizer underperforms on some instance.  The polish and
fallback checks only need the ratio up to a limit, so they use the
oracle's bounded evaluation
(:meth:`~repro.lp.worst_case.WorstCaseOracle.evaluate_within`), which
stops at the first edge that passes it.

The result carries the loop's oracle, so a caller that scores more
routings on the same (DAGs, cone) reuses the loop's per-edge solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.config import DEFAULT_CONFIG, SolverConfig
from repro.core.softmax_opt import optimize_splitting_softmax, polish_balanced
from repro.demands.matrix import DemandMatrix
from repro.demands.uncertainty import UncertaintySet, representative_matrix
from repro.exceptions import SolverError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.lp.cutting_plane import cutting_plane
from repro.lp.dag_flow import induced_splitting_ratios
from repro.lp.mcf import MinCongestionSolver
from repro.lp.worst_case import OracleResult, WorstCaseOracle, normalize_to_unit_optimum
from repro.routing.splitting import Routing


@dataclass
class RobustResult:
    """Outcome of the robust splitting optimization.

    Attributes:
        routing: the best configuration found.
        objective: final finite-set objective — the local inner
            optimizer's estimate over ``T``, not a lower bound.
        oracle: final oracle evaluation of ``routing`` (certified ratio).
        rounds: adversarial rounds executed.
        history: per-round (finite-set objective, oracle ratio) pairs.
        matrices: the final critical demand set ``T``.
        stop: why the cutting-plane loop ended: ``"converged"``,
            ``"cycling"`` or ``"round-cap"`` (see
            :class:`~repro.lp.cutting_plane.CuttingPlaneResult`).
        evaluator: the worst-case oracle of this run, for scoring more
            routings on the same DAGs and cone; its memo holds every
            per-edge solve of the run.
    """

    routing: Routing
    objective: float
    oracle: OracleResult
    rounds: int
    stop: str
    evaluator: WorstCaseOracle
    history: list[tuple[float, float]] = field(default_factory=list)
    matrices: list[DemandMatrix] = field(default_factory=list)


def optimize_robust_splitting(
    network: Network,
    dags: Mapping[Node, Dag],
    uncertainty: UncertaintySet,
    config: SolverConfig = DEFAULT_CONFIG,
    initial_matrices: Sequence[DemandMatrix] = (),
    extra_starts: Sequence[Mapping[Node, Mapping[Edge, float]]] = (),
    fallbacks: Sequence[Routing] = (),
    name: str = "COYOTE",
) -> RobustResult:
    """Optimize in-DAG splitting against an uncertainty cone.

    Args:
        network: capacitated topology.
        dags: per-destination (augmented) forwarding DAGs.
        uncertainty: the demand cone (margin box or fully oblivious).
        config: tolerances / iteration caps.
        initial_matrices: seed demand matrices for ``T`` (a representative
            matrix of the cone is always added).
        extra_starts: warm-start ratio assignments for the inner solver.
        fallbacks: routings to check against the oracle at the end (e.g.
            ECMP).
        name: label of the resulting routing.

    Raises:
        SolverError: the softmax polish has no balance matrix, because
            the cone's representative matrix loads no DAG destination
            while ``initial_matrices`` do.
    """
    oracle = WorstCaseOracle(network, uncertainty, dags=dags, config=config)
    # One min-congestion solver for the whole run: every cut/normalize
    # below re-solves the same factorized within-DAG LP with fresh RHS.
    mcf_solver = MinCongestionSolver(network, dags)

    def normalize(dm: DemandMatrix) -> DemandMatrix:
        return normalize_to_unit_optimum(network, dm, dags=dags, solver=mcf_solver)

    # Pairs toward destinations without a DAG cannot carry flow in this
    # configuration; drop them before normalizing.
    targets = set(dags)
    matrices: list[DemandMatrix] = [
        normalize(dm)
        for dm in (dm.restricted_to_targets(targets) for dm in initial_matrices)
        if dm
    ]
    # The cone's representative matrix seeds T and is the polish's
    # balance set.
    representative = representative_matrix(uncertainty).restricted_to_targets(targets)
    balance = [normalize(representative)] if representative else []
    matrices.extend(balance)

    previous: Routing | None = None

    def master(demand_set: list[DemandMatrix]) -> tuple[float, Routing]:
        # Warm starts after the first round: the previous round's routing,
        # the LP optimum for the newest adversarial matrix, and the
        # caller's starts.
        nonlocal previous
        starts = list(extra_starts)
        if previous is not None:
            induced = induced_splitting_ratios(dags, mcf_solver.solve(demand_set[-1]))
            starts = [previous.ratios, induced, *starts]
        solution = optimize_splitting_softmax(
            network, dags, demand_set, config, initial_ratios=starts, name=name
        )
        previous = solution.routing
        return solution.objective, solution.routing

    loop = cutting_plane(
        master, oracle.evaluate, normalize, matrices, config, dedupe_tolerance=1e-6
    )
    best_routing, best_objective, best_oracle = loop.best, loop.objective, loop.oracle

    # Balance polish: among (near-)worst-case-optimal routings prefer one
    # with low average utilization (see polish_balanced).  Accepted only
    # if the oracle confirms the worst case did not regress.
    if matrices:
        if not balance:
            raise SolverError("the cone's representative matrix loads no DAG destination")

        polished = polish_balanced(
            network,
            dags,
            penalty_matrices=matrices,
            balance_matrices=balance,
            start_ratios=best_routing.ratios,
            bound=best_objective if best_objective < float("inf") else best_oracle.ratio,
            config=config,
            name=name,
        )
        limit = best_oracle.ratio * (1.0 + config.ratio_tolerance)
        polished_oracle = oracle.evaluate_within(polished.routing, limit)
        if polished_oracle is not None:
            best_routing, best_oracle = polished.routing, polished_oracle
            # Keep (objective, oracle) describing the same routing:
            # polished.objective is the polished point's max over T.
            best_objective = polished.objective

    # ECMP-dominance safeguard: keep the best oracle-certified routing.
    # A fallback that ties the incumbent does not replace it.
    for fallback in fallbacks:
        fallback_result = oracle.evaluate_within(fallback, best_oracle.ratio)
        if fallback_result is not None and fallback_result.ratio < best_oracle.ratio:
            best_routing, best_oracle = fallback, fallback_result
            best_objective = fallback_result.ratio

    return RobustResult(
        routing=best_routing,
        objective=best_objective,
        oracle=best_oracle,
        rounds=loop.rounds,
        stop=loop.stop,
        evaluator=oracle,
        history=loop.history,
        matrices=matrices,
    )

