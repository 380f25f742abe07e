"""Robust splitting optimization: the adversarial cutting-plane outer loop.

The paper handles infinite demand sets through dualization (Appendix C).
We realize the same guarantee in oracle form, the standard equivalent for
robust optimization:

1. optimize splitting ratios against a *finite* set ``T`` of demand
   matrices (each normalized to unit within-DAG optimum, so the raw
   worst utilization equals the performance ratio);
2. call the slave-LP oracle to find the worst-case demand for the
   resulting routing over the *whole* uncertainty cone;
3. if the oracle ratio exceeds the finite-set objective by more than the
   tolerance, add the oracle's demand matrix to ``T`` and repeat.

The finite-set objective is a lower bound and the oracle ratio an upper
bound on the optimal robust ratio achievable with these DAGs, so their
gap certifies convergence.  The returned routing always carries the
oracle-certified ratio.

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
from repro.core.gp import optimize_splitting_gp
from repro.core.softmax_opt import SplittingSolution, optimize_splitting_softmax
from repro.demands.matrix import DemandMatrix
from repro.demands.uncertainty import UncertaintySet, representative_matrix
from repro.exceptions import SolverError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.lp.worst_case import OracleResult, WorstCaseOracle, normalize_to_unit_optimum
from repro.routing.splitting import Routing


@dataclass
class RobustResult:
    """Outcome of the robust splitting optimization.

    Attributes:
        routing: the best configuration found.
        objective: final finite-set objective (lower bound).
        oracle: final oracle evaluation of ``routing`` (certified ratio).
        rounds: adversarial rounds executed.
        history: per-round (finite-set objective, oracle ratio) pairs.
        matrices: the final critical demand set ``T``.
        stop: why the cutting-plane loop ended: ``"converged"`` (the
            oracle ratio came within the tolerance of the finite-set
            objective), ``"cycling"`` (the oracle's cuts were all in
            ``T`` already) or ``"round-cap"`` (``max_adversarial_rounds``
            ran out first).
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


def _inner_optimize(
    optimizer: str,
    network: Network,
    dags: Mapping[Node, Dag],
    matrices: Sequence[DemandMatrix],
    config: SolverConfig,
    starts: Sequence[Mapping[Node, Mapping[Edge, float]]],
    name: str,
) -> SplittingSolution:
    if optimizer == "softmax":
        return optimize_splitting_softmax(
            network, dags, matrices, config, initial_ratios=starts, name=name
        )
    if optimizer == "gp":
        best: SplittingSolution | None = None
        for start in list(starts) or [None]:
            solution = optimize_splitting_gp(
                network, dags, matrices, config, initial_ratios=start, name=name
            )
            if best is None or solution.objective < best.objective:
                best = solution
        assert best is not None
        return best
    raise SolverError(f"unknown splitting optimizer {optimizer!r}")


def optimize_robust_splitting(
    network: Network,
    dags: Mapping[Node, Dag],
    uncertainty: UncertaintySet,
    config: SolverConfig = DEFAULT_CONFIG,
    optimizer: str = "softmax",
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
        optimizer: ``"softmax"`` (scalable) or ``"gp"`` (paper-faithful,
            small instances).
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
    from repro.lp.mcf import MinCongestionSolver

    mcf_solver = MinCongestionSolver(network, dags)
    # Pairs toward destinations without a DAG cannot carry flow in this
    # configuration; drop them before normalizing.
    targets = set(dags)
    matrices: list[DemandMatrix] = [
        normalize_to_unit_optimum(network, dm, dags=dags, solver=mcf_solver)
        for dm in (dm.restricted_to_targets(targets) for dm in initial_matrices)
        if dm
    ]
    # The cone's representative matrix seeds T and is the polish's
    # balance set.
    representative = representative_matrix(uncertainty).restricted_to_targets(targets)
    balance: list[DemandMatrix] = []
    if representative:
        balance.append(
            normalize_to_unit_optimum(network, representative, dags=dags, solver=mcf_solver)
        )
    matrices.extend(balance)

    history: list[tuple[float, float]] = []
    best_routing: Routing | None = None
    best_oracle: OracleResult | None = None
    best_objective = float("inf")
    previous_starts = list(extra_starts)
    rounds = 0
    stop = "round-cap"

    for rounds in range(1, config.max_adversarial_rounds + 1):
        solution = _inner_optimize(
            optimizer, network, dags, matrices, config, previous_starts, name
        )
        oracle_result = oracle.evaluate(solution.routing)
        history.append((solution.objective, oracle_result.ratio))
        if best_oracle is None or oracle_result.ratio < best_oracle.ratio:
            best_routing, best_oracle = solution.routing, oracle_result
            best_objective = solution.objective
        # Convergence: the oracle cannot find demands (meaningfully) worse
        # than the finite set already covers.
        if oracle_result.ratio <= solution.objective * (1.0 + config.ratio_tolerance):
            stop = "converged"
            break
        added = 0
        for cut in oracle_result.cuts:
            if not cut:
                continue
            normalized = normalize_to_unit_optimum(
                network, cut, dags=dags, solver=mcf_solver
            )
            if any(
                normalized.close_to(existing, tolerance=1e-6) for existing in matrices
            ):
                continue
            matrices.append(normalized)
            added += 1
        if added == 0:
            stop = "cycling"  # no progress possible
            break
        # Warm starts for the next round: the incumbent, the LP optimum
        # for the newest adversarial matrix, and the caller's starts.
        from repro.lp.dag_flow import induced_splitting_ratios

        newest = matrices[-1]
        induced = induced_splitting_ratios(dags, mcf_solver.solve(newest))
        previous_starts = [solution.routing.ratios, induced, *extra_starts]

    assert best_routing is not None and best_oracle is not None

    # Balance polish: among (near-)worst-case-optimal routings prefer one
    # with low average utilization (see polish_balanced).  Accepted only
    # if the oracle confirms the worst case did not regress.
    if optimizer == "softmax" and matrices:
        from repro.core.softmax_opt import polish_balanced

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
        polished_oracle = oracle.evaluate_within(
            polished.routing, limit, order=best_oracle.per_edge
        )
        if polished_oracle is not None:
            best_routing, best_oracle = polished.routing, polished_oracle
            # Keep (objective, oracle) describing the same routing:
            # polished.objective is the polished point's max over T.
            best_objective = polished.objective

    # ECMP-dominance safeguard: keep the best oracle-certified routing.
    # A fallback that ties the incumbent does not replace it.
    for fallback in fallbacks:
        fallback_result = oracle.evaluate_within(
            fallback, best_oracle.ratio, order=best_oracle.per_edge
        )
        if fallback_result is not None and fallback_result.ratio < best_oracle.ratio:
            best_routing, best_oracle = fallback, fallback_result
            best_objective = fallback_result.ratio

    return RobustResult(
        routing=best_routing,
        objective=best_objective,
        oracle=best_oracle,
        rounds=rounds,
        stop=stop,
        evaluator=oracle,
        history=history,
        matrices=matrices,
    )

