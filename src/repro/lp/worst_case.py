"""The adversarial ("slave") LP of Appendix C, equations (10)-(11).

For a *fixed* routing ``phi`` the performance ratio over an uncertainty
set ``D`` is, by scale invariance,

    PERF(phi, D) = max_e  max { load_e(phi, D) / c_e :
                                D in cone(D),  OPT(D) <= 1 }

i.e. one LP per edge where the objective is the (linear!) load placed on
that edge and the constraints assert that a witness flow ``g`` routes
``D`` at congestion <= 1, and that ``D`` lies in the margin cone
``lambda * lo <= d <= lambda * hi``.

Two witness modes select the normalizer ``OPT``:

* ``dags``    — the witness flow is restricted to the per-destination
  DAGs, so ratios are relative to the *demands-aware optimum within the
  same DAGs* (the normalization used in Section VI / Table I);
* ``network`` — the witness may use any edge, normalizing against the
  unrestricted optimum (used by the local-search heuristic, which follows
  the oblivious-OSPF objective of [12]).

The paper writes the flow-conservation rows of the slave LP with a
``<= 0`` sense (eq. 10); taken literally that lets the adversary inflate
demands beyond what the witness flow delivers, making the LP unbounded.
We use the standard equality conservation from Applegate & Cohen [11],
which is the form the dualization (Theorem 5) actually corresponds to.

All constraint matrices are compiled once per (witness, uncertainty)
pair and stay loaded in a persistent backend instance; evaluating a
routing only swaps the (sparse) objective, so a sweep over all edges
costs one solve of the prepared LP per edge and nothing more.
Per-edge solves are isolated (cold, see :mod:`repro.lp.backend`) so
results are independent of sweep order and of how the sweep is split
across threads: it runs on every usable core
(:func:`repro.lp.backend.lp_threads`), and serially on one core or on a
backend that is not thread-safe.  Solves run at the backend engine's
default tolerances (HiGHS 1e-7) and demand entries below 1e-10 are
dropped from extracted worst-case matrices.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

from repro.config import DEFAULT_CONFIG, SolverConfig
from repro.demands.matrix import DemandMatrix, Pair
from repro.demands.uncertainty import UncertaintySet
from repro.exceptions import SolverError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.lp import backend as lp_backend
from repro.lp.model import LinExpr, Model, ReusableLP, Variable
from repro.routing.splitting import Routing


@dataclass
class OracleResult:
    """Outcome of a worst-case evaluation of a fixed routing.

    Attributes:
        ratio: ``PERF(phi, D)`` — worst-case utilization against demands
            normalized to ``OPT <= 1``.
        edge: the link attaining the worst ratio.
        demand: a worst-case demand matrix (already scaled to be routable
            at congestion <= 1 under the witness mode).
        per_edge: worst-case utilization per evaluated edge.
        cuts: worst-case demands of the most-violated edges, best first —
            the cutting-plane loop adds several per round to converge in
            fewer oracle sweeps.
    """

    ratio: float
    edge: Edge | None
    demand: DemandMatrix | None
    per_edge: dict[Edge, float]
    cuts: list[DemandMatrix] = field(default_factory=list)


class WorstCaseOracle:
    """Reusable adversarial evaluator for a fixed (witness, uncertainty) pair."""

    def __init__(
        self,
        network: Network,
        uncertainty: UncertaintySet,
        dags: Mapping[Node, Dag] | None = None,
        config: SolverConfig = DEFAULT_CONFIG,
    ):
        """Args:
        network: the capacitated topology.
        uncertainty: the demand cone the adversary may pick from.
        dags: witness restriction; ``None`` selects the network-wide
            witness (normalization against the unrestricted optimum).
        config: solver tolerances.
        """
        self.network = network
        self.dags = dict(dags) if dags is not None else None
        self.uncertainty = uncertainty
        self.config = config
        self._build()

    # -- construction ---------------------------------------------------

    def _witness_edges(self, destination: Node) -> list[Edge]:
        if self.dags is not None:
            dag = self.dags.get(destination)
            if dag is None:
                raise SolverError(f"no DAG provided for destination {destination!r}")
            return dag.edges()
        return [e for e in self.network.edges() if e[0] != destination]

    def _pair_allowed(self, source: Node, destination: Node) -> bool:
        if source == destination:
            return False
        if self.dags is not None:
            dag = self.dags.get(destination)
            return dag is not None and dag.has_node(source)
        return self.network.has_node(source) and self.network.has_node(destination)

    def _build(self) -> None:
        model = Model("slave")
        self._demand_vars: dict[Pair, Variable] = {}
        for (s, t) in self.uncertainty.pairs:
            if self._pair_allowed(s, t):
                self._demand_vars[(s, t)] = model.add_var(f"d[{s},{t}]")

        destinations = sorted({t for (_s, t) in self._demand_vars}, key=str)
        flow_vars: dict[Node, dict[Edge, Variable]] = {}
        for t in destinations:
            edges = self._witness_edges(t)
            flow_vars[t] = {e: model.add_var(f"g[{t}][{e}]") for e in edges}
            incident: dict[Node, tuple[list[Edge], list[Edge]]] = {}
            for (u, v) in edges:
                incident.setdefault(u, ([], []))
                incident.setdefault(v, ([], []))
                incident[u][0].append((u, v))
                incident[v][1].append((u, v))
            # Conservation: outflow - inflow equals the demand originated
            # at the node (equality; see module docstring).
            for node, (out_list, in_list) in incident.items():
                if node == t:
                    continue
                balance = LinExpr()
                for e in out_list:
                    balance.add_term(flow_vars[t][e], 1.0)
                for e in in_list:
                    balance.add_term(flow_vars[t][e], -1.0)
                demand_var = self._demand_vars.get((node, t))
                if demand_var is not None:
                    balance.add_term(demand_var, -1.0)
                model.add_eq(balance, 0.0)

        # Witness congestion at most 1 on every finite-capacity edge.
        for edge in self.network.finite_capacity_edges():
            usage = LinExpr()
            for t in destinations:
                var = flow_vars[t].get(edge)
                if var is not None:
                    usage.add_term(var, 1.0)
            if usage.terms:
                model.add_le(usage, self.network.capacity(*edge))

        # Margin cone: lambda * lo <= d <= lambda * hi (skipped for the
        # oblivious set, whose only constraint is nonnegativity).
        if not self.uncertainty.oblivious:
            lam = model.add_var("lambda")
            for pair, var in self._demand_vars.items():
                lo, hi = self.uncertainty.bounds[pair]
                if hi < math.inf:
                    model.add_le(var - hi * lam, 0.0)
                if lo > 0:
                    model.add_le(lo * lam - var, 0.0)

        self._model = model
        self._compiled = model.compile()
        # One persistent backend instance for the calling thread; each
        # helper thread of a parallel sweep gets one of its own
        # (instances are stateful), built on first use and kept.
        self._reusable: ReusableLP = self._compiled.reusable()
        self._helper_lps: list[ReusableLP] = []

    # -- queries ----------------------------------------------------------

    @property
    def demand_pairs(self) -> list[Pair]:
        """Pairs the adversary can actually use (support of the LP)."""
        return list(self._demand_vars)

    def worst_utilization_for_edge(
        self,
        edge: Edge,
        coefficients: Mapping[Pair, float],
        reusable: ReusableLP | None = None,
    ) -> tuple[float, DemandMatrix]:
        """Maximize the utilization of ``edge`` over the uncertainty set.

        Args:
            edge: the link under attack.
            coefficients: pair -> fraction of that pair's demand crossing
                ``edge`` under the fixed routing (``f_st(u) * phi_t(e)``).
            reusable: solver instance to use (default: the oracle's own;
                parallel sweeps pass per-thread instances).

        Returns:
            (utilization, worst-case demand matrix).
        """
        capacity = self.network.capacity(*edge)
        if not math.isfinite(capacity):
            return 0.0, DemandMatrix({})
        objective: dict[int, float] = {}
        for pair, coefficient in coefficients.items():
            var = self._demand_vars.get(pair)
            if var is not None and coefficient > 0.0:
                objective[var.index] = coefficient / capacity
        if not objective:
            return 0.0, DemandMatrix({})
        if reusable is None:
            reusable = self._reusable
        solution = reusable.solve(objective, maximize=True)
        demand = DemandMatrix(
            {
                pair: solution.value(var)
                for pair, var in self._demand_vars.items()
                if solution.value(var) > 1e-10
            }
        )
        return float(solution.objective), demand

    def evaluate(
        self,
        routing: Routing,
        edges: list[Edge] | None = None,
        keep_cuts: int = 4,
    ) -> OracleResult:
        """``PERF(routing, D)`` via one slave LP per (loaded, finite) edge.

        Args:
            routing: the fixed configuration under evaluation.
            edges: restrict the sweep (default: all finite-capacity edges).
            keep_cuts: how many of the worst per-edge demand matrices to
                return for cutting-plane use.
        """
        # Objective-coefficient assembly rides the vectorized kernel when
        # enabled (see repro.kernel.coefficients); any change to how
        # coefficients are derived is a solver-semantics change — bump
        # CACHE_VERSION in repro.runner.spec.
        coefficients = routing.load_coefficients(list(self._demand_vars))
        candidates = edges if edges is not None else self.network.finite_capacity_edges()
        loaded = [
            (edge, coefficients[edge])
            for edge in candidates
            if coefficients.get(edge)
        ]
        results = self._sweep(loaded)
        per_edge: dict[Edge, float] = {}
        findings: list[tuple[float, Edge, DemandMatrix]] = []
        for (edge, _coeffs), (utilization, demand) in zip(loaded, results):
            per_edge[edge] = utilization
            if demand:
                findings.append((utilization, edge, demand))
        findings.sort(key=lambda item: item[0], reverse=True)
        cuts: list[DemandMatrix] = []
        for _u, _e, demand in findings[: max(keep_cuts, 1)]:
            if not any(demand.close_to(seen, tolerance=1e-9) for seen in cuts):
                cuts.append(demand)
        if not findings:
            return OracleResult(0.0, None, None, per_edge, [])
        best_ratio, best_edge, best_demand = findings[0]
        return OracleResult(best_ratio, best_edge, best_demand, per_edge, cuts)

    def _sweep(
        self, loaded: list[tuple[Edge, Mapping[Pair, float]]]
    ) -> list[tuple[float, DemandMatrix]]:
        """Solve the per-edge LPs, one strided share per usable core.

        The calling thread solves share 0 on the oracle's own instance;
        helper threads solve the others, each on an instance of its own.
        Results land by index, so the list is the serial sweep's, bit
        for bit: per-edge solves are isolated.  The sweep stays serial
        on a backend that does not declare itself thread-safe.
        """
        shares = min(lp_backend.lp_threads(), len(loaded))
        if shares <= 1 or not lp_backend.get_backend().thread_safe:
            return [
                self.worst_utilization_for_edge(edge, coeffs)
                for edge, coeffs in loaded
            ]
        while len(self._helper_lps) < shares - 1:
            self._helper_lps.append(self._compiled.reusable())
        results: list = [None] * len(loaded)

        def solve_share(share: int, reusable: ReusableLP) -> None:
            for index in range(share, len(loaded), shares):
                edge, coeffs = loaded[index]
                results[index] = self.worst_utilization_for_edge(edge, coeffs, reusable)

        # Leaving the block waits for every helper, even when share 0
        # raised, so no helper still holds its instance after a sweep.
        with ThreadPoolExecutor(shares - 1, thread_name_prefix="lp-sweep") as pool:
            futures = [
                pool.submit(solve_share, share, self._helper_lps[share - 1])
                for share in range(1, shares)
            ]
            solve_share(0, self._reusable)
        for future in futures:
            future.result()
        return results

    def check_membership(self, demand: DemandMatrix) -> bool:
        """True when ``demand`` lies in the uncertainty cone (direction-wise)."""
        return self.uncertainty.contains_direction(demand)


def evaluate_on_matrices(
    network: Network,
    dags: Mapping[Node, Dag],
    routing: Routing,
    matrices: list[DemandMatrix],
) -> float:
    """Max over a finite list of ``MxLU(phi, D) / OPT_DAG(D)`` ratios.

    Used by the optimizers' inner loops where the adversarial set has
    already been discretized into concrete matrices.
    """
    from repro.lp.dag_flow import dag_optimal_congestion  # local: avoid cycle

    worst = 0.0
    for demand in matrices:
        if not demand:
            continue
        mlu = routing.max_link_utilization(demand, network)
        optimum = dag_optimal_congestion(network, dags, demand).alpha
        if optimum <= 0:
            raise SolverError("demand matrix with zero within-DAG optimum")
        worst = max(worst, mlu / optimum)
    return worst


def normalize_to_unit_optimum(
    network: Network,
    demand: DemandMatrix,
    dags: Mapping[Node, Dag] | None = None,
    solver: "object | None" = None,
) -> DemandMatrix:
    """Scale ``demand`` so its optimal congestion equals 1.

    After normalization, ``MxLU(phi, D)`` *is* the performance ratio of
    ``phi`` on ``D``, which lets the finite-set optimizers use raw loads
    as their objective.  ``dags=None`` normalizes against the
    unrestricted optimum, otherwise against the within-DAG optimum.

    ``solver`` may carry a :class:`~repro.lp.mcf.MinCongestionSolver`
    already bound to (network, dags): cutting-plane loops normalize one
    matrix per cut, and the shared solver re-solves a factorized LP
    instead of rebuilding it each round.
    """
    from repro.lp.mcf import min_congestion  # local: avoid cycle

    if solver is not None:
        optimum = solver.solve(demand).alpha
    else:
        optimum = min_congestion(network, demand, dags=dags).alpha
    if optimum <= 0:
        raise SolverError("cannot normalize a demand with zero optimal congestion")
    return demand.scaled(1.0 / optimum)
