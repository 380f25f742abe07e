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
costs at most one solve of the prepared LP per edge.
Per-edge solves are isolated (cold, see :mod:`repro.lp.backend`) so
results are independent of sweep order and of how the sweep is split
across threads: it runs on every usable core
(:func:`repro.lp.backend.lp_threads`), and serially on one core or on a
backend that is not thread-safe.  Solves run at the backend engine's
default tolerances (HiGHS 1e-7) and demand entries below 1e-10 are
dropped from extracted worst-case matrices.

Because a solve depends on its objective alone, each oracle keeps a
memo of per-edge results keyed by the exact bytes of the objective (the
demand-variable indices and the coefficient / capacity values): each
distinct objective is solved once per oracle, however many routings
share it (an ECMP routing and its DAG projection, a routing the
cutting-plane loop already certified and the table then scores).  The
memo lives and dies with the oracle.

:meth:`WorstCaseOracle.evaluate_within` is the bounded form of
:meth:`~WorstCaseOracle.evaluate` for accept/reject checks: it sweeps
the edges hottest-first (in the order of an incumbent's per-edge
ratios), stops every thread, through one shared flag, as soon as one
edge passes the limit, and returns None then.  Otherwise every edge was
solved and it returns the full evaluation.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

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


def _passes(result: tuple[float, np.ndarray], limit: float) -> bool:
    """Whether a per-edge result alone puts the ratio above ``limit``.

    An edge whose worst-case demand is empty is no finding of
    :meth:`WorstCaseOracle.evaluate`, so it never raises the ratio.
    """
    utilization, demand = result
    return utilization > limit and bool(demand.any())


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
        self._pairs: list[Pair] = list(self._demand_vars)
        self._demand_columns = np.array(
            [var.index for var in self._demand_vars.values()], dtype=np.intp
        )
        # Per-edge results by objective bytes (see _key): utilization and
        # the worst-case demand per adversary pair, as a dense array.
        # Only the calling thread reads or writes it.
        self._memo: dict[bytes, tuple[float, np.ndarray]] = {}

    # -- queries ----------------------------------------------------------

    @property
    def demand_pairs(self) -> list[Pair]:
        """Pairs the adversary can actually use (support of the LP)."""
        return list(self._demand_vars)

    def worst_utilization_for_edge(
        self,
        edge: Edge,
        coefficients: Mapping[Pair, float],
    ) -> tuple[float, DemandMatrix]:
        """Maximize the utilization of ``edge`` over the uncertainty set.

        A direct solve: it neither reads nor fills the oracle's memo.

        Args:
            edge: the link under attack.
            coefficients: pair -> fraction of that pair's demand crossing
                ``edge`` under the fixed routing (``f_st(u) * phi_t(e)``).

        Returns:
            (utilization, worst-case demand matrix).
        """
        objective = self._objective(edge, coefficients)
        if not objective:
            return 0.0, DemandMatrix({})
        utilization, demand = self._solve(objective, self._reusable)
        return utilization, self._demand_matrix(demand)

    def evaluate(
        self,
        routing: Routing,
        edges: list[Edge] | None = None,
        keep_cuts: int = 4,
    ) -> OracleResult:
        """``PERF(routing, D)`` via one slave LP per (loaded, finite) edge.

        Only objectives this oracle has not solved before reach the
        solver; the rest come from the memo.

        Args:
            routing: the fixed configuration under evaluation.
            edges: restrict the sweep (default: all finite-capacity edges).
            keep_cuts: how many of the worst per-edge demand matrices to
                return for cutting-plane use.
        """
        loaded = self._loaded(routing, edges)
        self._fill(loaded)
        return self._result(loaded, keep_cuts)

    def evaluate_within(
        self,
        routing: Routing,
        limit: float,
        order: Mapping[Edge, float] | None = None,
    ) -> OracleResult | None:
        """``evaluate(routing)`` if its ratio is at most ``limit``, else None.

        Edges are swept in descending ``order`` (e.g. an incumbent's
        ``per_edge``; edges it lacks go last), and every thread stops as
        soon as one edge passes ``limit``, which settles the None.
        """
        loaded = self._loaded(routing)
        hottest = loaded
        if order is not None:
            hottest = sorted(loaded, key=lambda item: order.get(item[0], -math.inf), reverse=True)
        if self._fill(hottest, limit):
            return None
        result = self._result(loaded)
        return None if result.ratio > limit else result

    # -- sweeps -----------------------------------------------------------

    def _objective(self, edge: Edge, coefficients: Mapping[Pair, float]) -> dict[int, float]:
        """The per-edge LP objective ``{demand column: coefficient / capacity}``.

        Empty for an infinite-capacity edge or one no adversary pair loads.
        """
        capacity = self.network.capacity(*edge)
        if not math.isfinite(capacity):
            return {}
        objective: dict[int, float] = {}
        for pair, coefficient in coefficients.items():
            var = self._demand_vars.get(pair)
            if var is not None and coefficient > 0.0:
                objective[var.index] = coefficient / capacity
        return objective

    @staticmethod
    def _key(objective: Mapping[int, float]) -> bytes:
        """The memo key: the objective's columns and values, column-sorted."""
        columns = np.fromiter(objective, dtype=np.int64, count=len(objective))
        values = np.fromiter(objective.values(), dtype=float, count=len(objective))
        order = np.argsort(columns)
        return columns[order].tobytes() + values[order].tobytes()

    def _loaded(
        self, routing: Routing, edges: list[Edge] | None = None
    ) -> list[tuple[Edge, dict[int, float], bytes | None]]:
        """(edge, objective, memo key) per loaded candidate edge.

        The key is None for an empty objective, whose result is (0.0, no
        demand) without a solve.
        """
        # Objective coefficients come from the vectorized kernel
        # (repro.kernel.coefficients); any change to how they are derived
        # is a solver-semantics change — bump CACHE_VERSION in
        # repro.runner.spec.
        coefficients = routing.load_coefficients(list(self._pairs))
        candidates = edges if edges is not None else self.network.finite_capacity_edges()
        loaded = []
        for edge in candidates:
            coeffs = coefficients.get(edge)
            if coeffs:
                objective = self._objective(edge, coeffs)
                loaded.append((edge, objective, self._key(objective) if objective else None))
        return loaded

    def _result(
        self, loaded: list[tuple[Edge, dict[int, float], bytes | None]], keep_cuts: int = 4
    ) -> OracleResult:
        """The evaluation of a routing whose ``loaded`` objectives are all memoized."""
        per_edge: dict[Edge, float] = {}
        findings: list[tuple[float, Edge, np.ndarray]] = []
        for edge, _objective, key in loaded:
            if key is None:
                per_edge[edge] = 0.0
                continue
            utilization, demand = self._memo[key]
            per_edge[edge] = utilization
            if demand.any():
                findings.append((utilization, edge, demand))
        findings.sort(key=lambda item: item[0], reverse=True)
        cuts: list[DemandMatrix] = []
        for _u, _e, demand in findings[: max(keep_cuts, 1)]:
            matrix = self._demand_matrix(demand)
            if not any(matrix.close_to(seen, tolerance=1e-9) for seen in cuts):
                cuts.append(matrix)
        if not findings:
            return OracleResult(0.0, None, None, per_edge, [])
        best_ratio, best_edge, _demand = findings[0]
        return OracleResult(best_ratio, best_edge, cuts[0], per_edge, cuts)

    def _solve(
        self, objective: Mapping[int, float], reusable: ReusableLP
    ) -> tuple[float, np.ndarray]:
        """One per-edge solve: (utilization, worst-case demand per pair)."""
        solution = reusable.solve(objective, maximize=True)
        demand = solution.values[self._demand_columns]
        return float(solution.objective), np.where(demand > 1e-10, demand, 0.0)

    def _demand_matrix(self, demand: np.ndarray) -> DemandMatrix:
        """The sparse matrix of a dense per-pair demand array (zeros dropped)."""
        pairs = self._pairs
        return DemandMatrix({pairs[i]: float(demand[i]) for i in np.flatnonzero(demand)})

    def _fill(
        self,
        loaded: list[tuple[Edge, dict[int, float], bytes | None]],
        limit: float | None = None,
    ) -> bool:
        """Solve the objectives of ``loaded`` missing from the memo, in order.

        With a ``limit`` it solves nothing once a memoized result passes
        it, and the sweep stops once a solve does; returns whether one
        did.  Results enter the memo here, on the calling thread, after
        the sweep.
        """
        pending: dict[bytes, dict[int, float]] = {}
        for _edge, objective, key in loaded:
            if key is None:
                continue
            if key not in self._memo:
                pending.setdefault(key, objective)
            elif limit is not None and _passes(self._memo[key], limit):
                return True
        if not pending:
            return False
        results = self._sweep(list(pending.values()), limit)
        passed = False
        for key, result in zip(pending, results):
            if result is not None:
                self._memo[key] = result
                passed = passed or (limit is not None and _passes(result, limit))
        return passed

    def _sweep(
        self, objectives: list[dict[int, float]], limit: float | None = None
    ) -> list[tuple[float, np.ndarray] | None]:
        """Solve the per-edge LPs, one strided share per usable core.

        The calling thread solves share 0 on the oracle's own instance;
        helper threads solve the others, each on an instance of its own.
        Results land by index, so the list is the serial sweep's, bit
        for bit: per-edge solves are isolated.  The sweep stays serial
        on a backend that does not declare itself thread-safe.  With a
        ``limit``, one shared flag stops every share once a result
        passes it; the entries left unsolved stay None.
        """
        results: list[tuple[float, np.ndarray] | None] = [None] * len(objectives)
        stop = threading.Event()

        def solve_share(share: int, shares: int, reusable: ReusableLP) -> None:
            for index in range(share, len(objectives), shares):
                if stop.is_set():
                    return
                result = self._solve(objectives[index], reusable)
                results[index] = result
                if limit is not None and _passes(result, limit):
                    stop.set()

        shares = min(lp_backend.lp_threads(), len(objectives))
        if shares <= 1 or not lp_backend.get_backend().thread_safe:
            solve_share(0, 1, self._reusable)
            return results
        while len(self._helper_lps) < shares - 1:
            self._helper_lps.append(self._compiled.reusable())
        # Leaving the block waits for every helper, even when share 0
        # raised, so no helper still holds its instance after a sweep.
        with ThreadPoolExecutor(shares - 1, thread_name_prefix="lp-sweep") as pool:
            futures = [
                pool.submit(solve_share, share, shares, self._helper_lps[share - 1])
                for share in range(1, shares)
            ]
            solve_share(0, shares, self._reusable)
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
