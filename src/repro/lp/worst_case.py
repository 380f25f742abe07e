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
pair and stay loaded in a persistent engine instance; evaluating a
routing only swaps the (sparse) objective, so a sweep over all edges
costs at most one solve of the prepared LP per edge.
Per-edge solves are isolated (cold, see :mod:`repro.lp.backend`) so
results are independent of sweep order and of how the sweep is split
across threads: it runs on every usable core
(:func:`repro.lp.backend.lp_threads`), and serially on one core.
Solves run at HiGHS's default tolerances (1e-7) and demand entries
below 1e-10 are dropped from extracted worst-case matrices.

Because a solve depends on its objective alone, each oracle keeps a
memo of per-edge results keyed by the exact bytes of the objective (the
demand-variable indices and the coefficient / capacity values): each
distinct objective is solved once per oracle, however many routings
share it (an ECMP routing and its DAG projection, a routing the
cutting-plane loop already certified and the table then scores).  The
memo lives and dies with the oracle.

The memo also bounds objectives it has not solved.  Every per-edge LP
maximizes a non-negative objective ``c`` over the same polytope, which
lies in ``d >= 0``:

* *upper bound* — a memoized objective ``c'`` of the same edge with
  value ``u'`` gives ``u(c) <= u' * max_p c_p / c'_p`` whenever
  ``supp c`` lies in ``supp c'`` (each edge keeps its own sources:
  other edges' objectives rarely cover its support);
* *lower bound* — every memoized worst-case demand ``d_k`` is a point of
  the polytope, so ``u(c) >= c . d_k``.

Both are kept incrementally, one row per memo entry, appended on the
calling thread as the entry enters the memo.
:meth:`WorstCaseOracle.ratio` returns exactly ``evaluate(routing).ratio``
but solves only the edges whose upper bound reaches the best value the
routing is already known to attain (its memoized findings or its best
lower bound); the others cannot hold the maximum.  The bounds come from
solves at HiGHS's 1e-7 tolerances, so they are trusted only past the
relative safety margin :data:`BOUND_MARGIN` (1e-6): an edge is skipped
only if its upper bound misses the threshold by more than that margin,
and the edge whose lower bound sets the threshold is always solved.
Skipping decides *which* LPs run, never what a solve returns, so the
ratio is the maximum over the same per-edge values a full evaluation
reads.

:meth:`WorstCaseOracle.evaluate_within` is the bounded form of
:meth:`~WorstCaseOracle.evaluate` for accept/reject checks: it returns
None before any solve when a memoized finding passes the limit, or an
unsolved edge's lower bound passes it by the margin; otherwise it sweeps
the edges hottest-first (in the order of an incumbent's per-edge
ratios), stops every thread, through one shared flag, as soon as one
edge passes the limit, and returns None then.  Otherwise every edge was
solved and it returns the full evaluation.  Which edges a stopped sweep
solved depends on thread timing, so the memo it leaves, and so the
number of solves later calls need, can vary from run to run; their
results cannot.
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
from repro.lp.dag_flow import dag_optimal_congestion
from repro.lp.mcf import MinCongestionSolver, add_capacity_rows, allowed_edges, min_congestion
from repro.lp.model import Model, ReusableLP, Variable, add_flow_conservation
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


#: How many of the most-violated edges' worst-case demands an evaluation
#: returns as cuts: the cutting-plane master is cheap next to an oracle
#: sweep, so several cuts per round converge in fewer sweeps.
CUTS_PER_ROUND = 4

#: Relative margin by which a bound must clear a threshold or limit
#: before it settles anything without a solve: well above the 1e-7
#: tolerances of the solves the bounds come from.
BOUND_MARGIN = 1e-6

#: Unsolved per-edge objectives: memo key -> (edge, objective).
Pending = dict[bytes, tuple[Edge, dict[int, float]]]


def _passes(result: tuple[float, np.ndarray], limit: float) -> bool:
    """Whether a per-edge result alone puts the ratio above ``limit``.

    An edge whose worst-case demand is empty is no finding of
    :meth:`WorstCaseOracle.evaluate`, so it never raises the ratio.
    """
    utilization, demand = result
    return utilization > limit and bool(demand.any())


class _Rows:
    """A float matrix grown one row at a time (its capacity doubles)."""

    def __init__(self, width: int):
        self._data = np.empty((4, width))
        self._size = 0

    def append(self, row: np.ndarray) -> None:
        if self._size == len(self._data):
            self._data = np.concatenate([self._data, np.empty_like(self._data)])
        self._data[self._size] = row
        self._size += 1

    @property
    def array(self) -> np.ndarray:
        return self._data[: self._size]


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
            edges = allowed_edges(self.network, t, self.dags)
            flow_vars[t] = {e: model.add_var(f"g[{t}][{e}]") for e in edges}
            # Conservation: outflow - inflow equals the demand originated
            # at the node (equality; see module docstring).
            add_flow_conservation(model, flow_vars[t], t, demand_vars=self._demand_vars)

        # Witness congestion at most 1 on every finite-capacity edge.
        add_capacity_rows(model, self.network, flow_vars.values())

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
        # One persistent engine instance for the calling thread; each
        # helper thread of a parallel sweep gets one of its own
        # (instances are stateful), built on first use and kept.
        self._reusable: ReusableLP = self._compiled.reusable()
        self._helper_lps: list[ReusableLP] = []
        self._pairs: list[Pair] = list(self._demand_vars)
        self._demand_columns = np.array(
            [var.index for var in self._demand_vars.values()], dtype=np.intp
        )
        self._position = {var.index: i for i, var in enumerate(self._demand_vars.values())}
        # Per-edge results by objective bytes (see _key): utilization and
        # the worst-case demand per adversary pair, as a dense array.
        # Only the calling thread reads or writes it, or the bound
        # sources that grow with it (see the module docstring): per
        # edge, its memoized objectives over their values (c' / u'), and
        # every memoized non-empty worst-case demand.
        self._memo: dict[bytes, tuple[float, np.ndarray]] = {}
        self._upper: dict[Edge, _Rows] = {}
        self._demands = _Rows(len(self._pairs))

    # -- queries ----------------------------------------------------------

    @property
    def demand_pairs(self) -> list[Pair]:
        """Pairs the adversary can actually use (support of the LP)."""
        return list(self._demand_vars)

    def evaluate(self, routing: Routing) -> OracleResult:
        """``PERF(routing, D)`` via one slave LP per (loaded, finite) edge.

        Only objectives this oracle has not solved before reach the
        solver; the rest come from the memo.
        """
        # Objective coefficients come from the vectorized kernel
        # (repro.kernel.coefficients); any change to how they are derived
        # is a solver-semantics change — bump CACHE_VERSION in
        # repro.runner.spec.
        return self.evaluate_coefficients(routing.load_coefficients(list(self._pairs)))

    def evaluate_coefficients(
        self, coefficients: Mapping[Edge, Mapping[Pair, float]]
    ) -> OracleResult:
        """:meth:`evaluate` of a fixed routing given by its load coefficients.

        Args:
            coefficients: edge -> {pair: fraction of that pair's demand
                crossing the edge}; any fixed routing, per destination or
                per pair.
        """
        loaded = self._loaded(coefficients)
        self._fill(self._pending(loaded))
        return self._result(loaded)

    def ratio(self, routing: Routing) -> float:
        """``evaluate(routing).ratio``, solving only edges that could attain it.

        The memo's bounds (see the module docstring) give a threshold
        the ratio is known to reach; one sweep solves the unsolved edges
        whose upper bound reaches it, and the ratio is the largest
        memoized finding, as in :meth:`evaluate`.
        """
        loaded = self._loaded(routing.load_coefficients(list(self._pairs)))
        pending = self._pending(loaded)
        if pending:
            dense = self._rows(pending)
            lower = self._lower_bounds(dense)
            threshold = max(self._ratio(loaded), float(lower.max()))
            self._fill({
                key: entry
                for (key, entry), row, bound in zip(pending.items(), dense, lower)
                if bound == threshold
                or self._upper_bound(entry[0], row) * (1.0 + BOUND_MARGIN) >= threshold
            })
        return self._ratio(loaded)

    def evaluate_within(
        self,
        routing: Routing,
        limit: float,
        order: Mapping[Edge, float] | None = None,
    ) -> OracleResult | None:
        """``evaluate(routing)`` if its ratio is at most ``limit``, else None.

        A memoized finding past ``limit``, or an unsolved edge's lower
        bound past it by :data:`BOUND_MARGIN`, settles the None before
        any solve.  Otherwise edges are swept in descending ``order``
        (e.g. an incumbent's ``per_edge``; edges it lacks go last), and
        every thread stops as soon as one edge passes ``limit``, which
        settles the None.
        """
        loaded = self._loaded(routing.load_coefficients(list(self._pairs)))
        if self._ratio(loaded) > limit:
            return None
        hottest = loaded
        if order is not None:
            hottest = sorted(loaded, key=lambda item: order.get(item[0], -math.inf), reverse=True)
        pending = self._pending(hottest)
        if pending:
            lower = self._lower_bounds(self._rows(pending))
            if lower.max() > limit * (1.0 + BOUND_MARGIN) or self._fill(pending, limit):
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
        self, coefficients: Mapping[Edge, Mapping[Pair, float]]
    ) -> list[tuple[Edge, dict[int, float], bytes | None]]:
        """(edge, objective, memo key) per loaded finite-capacity edge.

        The key is None for an empty objective, whose result is (0.0, no
        demand) without a solve.
        """
        loaded = []
        for edge in self.network.finite_capacity_edges():
            coeffs = coefficients.get(edge)
            if coeffs:
                objective = self._objective(edge, coeffs)
                loaded.append((edge, objective, self._key(objective) if objective else None))
        return loaded

    def _pending(self, loaded: list[tuple[Edge, dict[int, float], bytes | None]]) -> Pending:
        """The distinct objectives of ``loaded`` missing from the memo, in order."""
        pending: Pending = {}
        for edge, objective, key in loaded:
            if key is not None and key not in self._memo:
                pending.setdefault(key, (edge, objective))
        return pending

    def _ratio(self, loaded: list[tuple[Edge, dict[int, float], bytes | None]]) -> float:
        """The largest memoized finding among ``loaded``'s objectives, or 0.0."""
        ratio = 0.0
        for _edge, _objective, key in loaded:
            result = self._memo.get(key) if key is not None else None
            if result is not None and result[1].any():
                ratio = max(ratio, result[0])
        return ratio

    def _row(self, objective: Mapping[int, float]) -> np.ndarray:
        """An objective as a dense row over the adversary pairs."""
        row = np.zeros(len(self._pairs))
        row[[self._position[column] for column in objective]] = list(objective.values())
        return row

    def _rows(self, pending: Pending) -> np.ndarray:
        """The ``pending`` objectives, one dense row each."""
        return np.array([self._row(objective) for _edge, objective in pending.values()])

    def _lower_bounds(self, dense: np.ndarray) -> np.ndarray:
        """Per objective row, its best value at a memoized worst-case demand."""
        demands = self._demands.array
        if not len(demands):
            return np.full(len(dense), -math.inf)
        return (dense @ demands.T).max(axis=1)

    def _upper_bound(self, edge: Edge, row: np.ndarray) -> float:
        """The least upper bound on the objective ``row``'s value from ``edge``'s sources."""
        sources = self._upper.get(edge)
        if sources is None:
            return math.inf
        support = np.flatnonzero(row)
        with np.errstate(divide="ignore"):
            scaled = row[support] / sources.array[:, support]
        return float(scaled.max(axis=1).min())

    def _remember(
        self, key: bytes, edge: Edge, objective: dict[int, float], result: tuple[float, np.ndarray]
    ) -> None:
        """Memoize one solve and append its bound sources."""
        self._memo[key] = result
        utilization, demand = result
        if utilization > 0.0:
            sources = self._upper.setdefault(edge, _Rows(len(self._pairs)))
            sources.append(self._row(objective) / utilization)
        if demand.any():
            self._demands.append(demand)

    def _result(self, loaded: list[tuple[Edge, dict[int, float], bytes | None]]) -> OracleResult:
        """The evaluation of a routing whose ``loaded`` objectives are all memoized.

        Its cuts are the distinct demands of the :data:`CUTS_PER_ROUND`
        most-violated edges.
        """
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
        for _u, _e, demand in findings[:CUTS_PER_ROUND]:
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

    def _fill(self, pending: Pending, limit: float | None = None) -> bool:
        """Solve the ``pending`` objectives, in order, in one sweep.

        With a ``limit`` the sweep stops once a solve passes it; returns
        whether one did.  Results enter the memo here, on the calling
        thread, after the sweep.
        """
        if not pending:
            return False
        results = self._sweep([objective for _edge, objective in pending.values()], limit)
        passed = False
        for (key, (edge, objective)), result in zip(pending.items(), results):
            if result is not None:
                self._remember(key, edge, objective, result)
                passed = passed or (limit is not None and _passes(result, limit))
        return passed

    def _sweep(
        self, objectives: list[dict[int, float]], limit: float | None = None
    ) -> list[tuple[float, np.ndarray] | None]:
        """Solve the per-edge LPs, one strided share per usable core.

        The calling thread solves share 0 on the oracle's own instance;
        helper threads solve the others, each on an instance of its own.
        Results land by index, so the list is the serial sweep's, bit
        for bit: per-edge solves are isolated.  With a ``limit``, one
        shared flag stops every share once a result passes it; the
        entries left unsolved stay None.
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
        if shares <= 1:
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
    solver: MinCongestionSolver | None = None,
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
    if solver is not None:
        optimum = solver.solve(demand).alpha
    else:
        optimum = min_congestion(network, demand, dags=dags).alpha
    if optimum <= 0:
        raise SolverError("cannot normalize a demand with zero optimal congestion")
    return demand.scaled(1.0 / optimum)
