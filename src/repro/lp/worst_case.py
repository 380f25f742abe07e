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

Only a few per-edge values matter.  The ratio is the largest finding
(an edge whose worst-case demand is not empty), the cuts are the
worst-case demands of the :data:`CUTS_PER_ROUND` largest, and
``per_edge`` holds exactly the loaded edges whose value is at or above
the ``CUTS_PER_ROUND``-th largest finding (every loaded edge when there
are fewer findings).  So a sweep solves only the edges that could reach
that finding, its *keep-th* one, and bounds rule the others out:

* *lower bound* — every memoized worst-case demand ``d_k`` is a point of
  the polytope, so ``u(c) >= c . d_k``;
* *caps* — at construction each adversary pair gets a cap ``M_p >= d_p``
  over the polytope: the witness routes ``d`` at congestion <= 1, so
  ``d_p`` is at most the capacity of the witness edges leaving ``s``
  toward ``t`` and at most the capacity entering ``t``; in a margin cone
  ``d_p <= lambda * hi_p``, and ``lambda`` is at most ``1 / OPT(lo)``
  (``d = lambda * lo`` must be routable over the oracle's pairs), its
  largest value over the polytope: one solve of the oracle's own LP;
* *upper bound* — a memoized objective ``c'`` of the same edge with value
  ``u'`` puts the polytope inside ``s . d <= 1`` for ``s = c' / u'``, so
  by LP duality over ``{0 <= d <= M, s . d <= 1}``
  ``u(c) <= min over alpha >= 0 of alpha + sum_p max(c_p - alpha s_p, 0) M_p``,
  a fractional knapsack minimized at the weighted-median breakpoint of
  ``c_p / s_p`` (weights ``s_p M_p``).  ``alpha = 0`` gives the box bound
  ``c . M`` (so an edge with no memoized objective is bounded too) and
  ``alpha = max_p c_p / s_p`` gives the plain scaling bound.  Each edge
  keeps its own sources: other edges' objectives rarely help.

Both sources are kept incrementally, one row per memo entry, appended on
the calling thread as the entry enters the memo.  One pruned sweep
serves :meth:`~WorstCaseOracle.evaluate` (keep =
:data:`CUTS_PER_ROUND`), :meth:`~WorstCaseOracle.ratio` (keep = 1) and
:meth:`~WorstCaseOracle.evaluate_within` (the same keep as ``evaluate``
plus its limit stop).  It takes the unsolved edges in descending lower
bound, and an edge is skipped only when both of its bounds, times
``1 + BOUND_MARGIN``, fall below the running keep-th largest of the
memoized findings, this sweep's findings and the unsolved edges' lower
bounds: each of those is a lower bound on a distinct loaded edge's
finding, so that threshold never passes the final keep-th finding, and
every edge that can reach it is solved.  The bounds come from solves at
HiGHS's 1e-7 tolerances, so they are trusted only past the relative
safety margin :data:`BOUND_MARGIN`.  Skipping decides *which* LPs run,
never what a solve returns, so ratio, edge, demand and cuts are what
solving every edge gives (:func:`evaluate_reference`), and ``per_edge``
is its restriction to the top edges, whatever the memo holds and
however many threads share the sweep.  The threshold rises as solves land on any
thread, so which edges a threaded sweep skips, and so its solve count,
can vary from run to run; its results cannot.

:meth:`WorstCaseOracle.evaluate_within` is the bounded form of
:meth:`~WorstCaseOracle.evaluate` for accept/reject checks: it returns
None before any solve when a memoized finding passes the limit, or an
unsolved edge's lower bound passes it by the margin; otherwise the
pruned sweep stops every thread, through one shared flag, as soon as
one edge passes the limit, and returns None then.  Otherwise it returns
the evaluation.
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
        per_edge: worst-case utilization of exactly the loaded edges at or
            above the :data:`CUTS_PER_ROUND`-th largest finding (of every
            loaded edge when there are fewer findings), in edge order.
            The sweep solves no edge below it, so this depends on neither
            the memo nor the thread count.
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
#: before it settles anything without a solve: over 100 times the worst
#: relative bound error measured against solves at HiGHS's 1e-7
#: tolerances (under 1.1e-6, in robust solves on Abilene and GEANT;
#: ``tests/test_oracle_bounds.py`` checks it on fixed routings).
BOUND_MARGIN = 2e-4

#: Worst-case demand entries at or below this are dropped from a solve's
#: demand, so a solve valued up to ``DEMAND_FLOOR * sum(c)`` may come
#: with an empty demand (no finding); lower bounds below ten times that
#: are not counted as findings.
DEMAND_FLOOR = 1e-10

#: One loaded finite-capacity edge: (edge, objective, memo key); the key
#: is None for an empty objective, whose result is (0.0, no demand).
Loaded = list[tuple[Edge, dict[int, float], bytes | None]]

#: Unsolved per-edge objectives: memo key -> (edge, objective).
Pending = dict[bytes, tuple[Edge, dict[int, float]]]


def _passes(result: tuple[float, np.ndarray], limit: float) -> bool:
    """Whether a per-edge result alone puts the ratio above ``limit``.

    An edge whose worst-case demand is empty is no finding of
    :meth:`WorstCaseOracle.evaluate`, so it never raises the ratio.
    """
    utilization, demand = result
    return utilization > limit and bool(demand.any())


def _kth_largest(values: np.ndarray, k: int) -> float:
    """The ``k``-th largest entry of ``values``, or -inf if it has fewer."""
    if len(values) < k:
        return -math.inf
    return float(np.partition(values, len(values) - k)[len(values) - k])


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
        lam = None
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
        self._caps = self._pair_caps(flow_vars, lam)
        # Per-edge results by objective bytes (see _key): utilization and
        # the worst-case demand per adversary pair, as a dense array.
        # Only the calling thread reads or writes it, or the bound
        # sources that grow with it (see the module docstring): per
        # edge, its memoized objectives over their values (c' / u'), and
        # every memoized non-empty worst-case demand.
        self._memo: dict[bytes, tuple[float, np.ndarray]] = {}
        self._upper: dict[Edge, _Rows] = {}
        self._demands = _Rows(len(self._pairs))

    def _pair_caps(
        self, flow_vars: Mapping[Node, Mapping[Edge, Variable]], lam: Variable | None
    ) -> np.ndarray:
        """Per adversary pair, a cap ``M_p >= d_p`` over the polytope.

        The witness edges leaving ``s`` toward ``t`` and those entering
        ``t`` carry all of ``d_st`` at congestion <= 1.  In a margin cone
        ``d_p <= lambda * hi_p``, and ``lambda`` is at most its largest
        value over the polytope, ``1 / OPT(lo)`` (``d = lambda * lo`` is
        routable), found by one solve of this LP.
        """
        capacity = self.network.capacity
        leaving: dict[tuple[Node, Node], float] = {}
        entering: dict[Node, float] = {}
        for t, flows in flow_vars.items():
            for (u, v) in flows:
                leaving[(u, t)] = leaving.get((u, t), 0.0) + capacity(u, v)
                if v == t:
                    entering[t] = entering.get(t, 0.0) + capacity(u, v)
        caps = np.array(
            [min(leaving.get(pair, 0.0), entering.get(pair[1], 0.0)) for pair in self._pairs]
        )
        if lam is None or not any(self.uncertainty.bounds[pair][0] > 0 for pair in self._pairs):
            return caps  # lambda is unbounded
        scale = self._reusable.solve({lam.index: 1.0}, maximize=True).objective
        return np.minimum(caps, [self.uncertainty.bounds[pair][1] * scale for pair in self._pairs])

    # -- queries ----------------------------------------------------------

    @property
    def demand_pairs(self) -> list[Pair]:
        """Pairs the adversary can actually use (support of the LP)."""
        return list(self._demand_vars)

    def evaluate(self, routing: Routing) -> OracleResult:
        """``PERF(routing, D)`` via one slave LP per (loaded, finite) edge
        that could reach the :data:`CUTS_PER_ROUND`-th largest finding.

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
        self._sweep(loaded, CUTS_PER_ROUND)
        return self._result(loaded)

    def ratio(self, routing: Routing) -> float:
        """``evaluate(routing).ratio``, solving only edges that could attain it.

        The pruned sweep of :meth:`evaluate` with keep = 1: the ratio is
        the largest memoized finding afterwards.
        """
        loaded = self._loaded(routing.load_coefficients(list(self._pairs)))
        self._sweep(loaded, 1)
        return self._ratio(loaded)

    def evaluate_within(self, routing: Routing, limit: float) -> OracleResult | None:
        """``evaluate(routing)`` if its ratio is at most ``limit``, else None.

        A memoized finding past ``limit``, or an unsolved edge's lower
        bound past it by :data:`BOUND_MARGIN`, settles the None before
        any solve.  Otherwise the sweep of :meth:`evaluate` runs, and
        every thread stops as soon as one edge passes ``limit``, which
        settles the None.
        """
        loaded = self._loaded(routing.load_coefficients(list(self._pairs)))
        if self._sweep(loaded, CUTS_PER_ROUND, limit):
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

    def _loaded(self, coefficients: Mapping[Edge, Mapping[Pair, float]]) -> Loaded:
        """(edge, objective, memo key) per loaded finite-capacity edge."""
        loaded = []
        for edge in self.network.finite_capacity_edges():
            coeffs = coefficients.get(edge)
            if coeffs:
                objective = self._objective(edge, coeffs)
                loaded.append((edge, objective, self._key(objective) if objective else None))
        return loaded

    def _pending(self, loaded: Loaded) -> Pending:
        """The distinct objectives of ``loaded`` missing from the memo, in order."""
        pending: Pending = {}
        for edge, objective, key in loaded:
            if key is not None and key not in self._memo:
                pending.setdefault(key, (edge, objective))
        return pending

    def _findings(self, loaded: Loaded) -> list[float]:
        """The memoized findings among ``loaded``, one per edge."""
        findings = []
        for _edge, _objective, key in loaded:
            result = self._memo.get(key) if key is not None else None
            if result is not None and result[1].any():
                findings.append(result[0])
        return findings

    def _ratio(self, loaded: Loaded) -> float:
        """The largest memoized finding among ``loaded``'s objectives, or 0.0."""
        return max(self._findings(loaded), default=0.0)

    def _row(self, objective: Mapping[int, float]) -> np.ndarray:
        """An objective as a dense row over the adversary pairs."""
        row = np.zeros(len(self._pairs))
        row[[self._position[column] for column in objective]] = list(objective.values())
        return row

    def _rows(self, pending: Pending) -> np.ndarray:
        """The ``pending`` objectives, one dense row each."""
        return np.array([self._row(objective) for _edge, objective in pending.values()])

    def _lower_bounds(self, dense: np.ndarray) -> np.ndarray:
        """Per objective row, a lower bound on its value as a finding.

        Its best value at a memoized worst-case demand, or -inf when that
        is too small to prove the solve's demand non-empty (see
        :data:`DEMAND_FLOOR`).
        """
        demands = self._demands.array
        if not len(demands):
            return np.full(len(dense), -math.inf)
        lower = (dense @ demands.T).max(axis=1)
        return np.where(lower > 10 * DEMAND_FLOOR * dense.sum(axis=1), lower, -math.inf)

    def _upper_bound(self, edge: Edge, row: np.ndarray) -> float:
        """The least upper bound on the objective ``row``'s value.

        Per memoized objective of ``edge``, the capped bound at its
        weighted-median breakpoint, its minimum, so (up to rounding) at
        most the box bound ``c . M`` it takes at ``alpha = 0`` (see the
        module docstring); the box bound alone when ``edge`` has none.
        """
        support = np.flatnonzero(row)
        c, caps = row[support], self._caps[support]
        sources = self._upper.get(edge)
        if sources is None:
            return float(c @ caps)
        s = sources.array[:, support]
        covered = s > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            breakpoints = np.where(covered, c / s, math.inf)
            weights = np.where(covered, s * caps, 0.0)
        order = np.argsort(-breakpoints, axis=1, kind="stable")
        reached = np.cumsum(np.take_along_axis(weights, order, axis=1), axis=1) >= 1.0
        first = reached.argmax(axis=1)
        alpha = np.where(
            reached.any(axis=1),
            np.take_along_axis(breakpoints, order, axis=1)[np.arange(len(s)), first],
            0.0,
        )
        excess = np.maximum(c - alpha[:, None] * s, 0.0)
        with np.errstate(invalid="ignore"):
            spill = np.where(excess > 0.0, excess * caps, 0.0).sum(axis=1)
        return float((alpha + spill).min())

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

    def _result(self, loaded: Loaded) -> OracleResult:
        """The evaluation of a routing after :meth:`_sweep` with keep =
        :data:`CUTS_PER_ROUND`: every edge at or above its keep-th
        finding is memoized, and ``per_edge`` holds exactly those."""
        floor = _kth_largest(np.array(self._findings(loaded)), CUTS_PER_ROUND)
        per_edge: dict[Edge, float] = {}
        findings: list[tuple[float, Edge, np.ndarray]] = []
        for edge, _objective, key in loaded:
            result = self._memo.get(key) if key is not None else (0.0, None)
            if result is None or result[0] < floor:
                continue
            utilization, demand = result
            per_edge[edge] = utilization
            if demand is not None and demand.any():
                findings.append((utilization, edge, demand))
        return self._outcome(findings, per_edge)

    def _outcome(
        self, findings: list[tuple[float, Edge, np.ndarray]], per_edge: dict[Edge, float]
    ) -> OracleResult:
        """The result with these findings: its cuts are the distinct
        demands of the :data:`CUTS_PER_ROUND` most-violated edges."""
        findings = sorted(findings, key=lambda item: item[0], reverse=True)
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
        return float(solution.objective), np.where(demand > DEMAND_FLOOR, demand, 0.0)

    def _demand_matrix(self, demand: np.ndarray) -> DemandMatrix:
        """The sparse matrix of a dense per-pair demand array (zeros dropped)."""
        pairs = self._pairs
        return DemandMatrix({pairs[i]: float(demand[i]) for i in np.flatnonzero(demand)})

    def _sweep(self, loaded: Loaded, keep: int, limit: float | None = None) -> bool:
        """Solve the unsolved edges of ``loaded`` that could reach its
        ``keep``-th largest finding, one share per usable core.

        Edges are taken in descending lower bound (then upper bound);
        before each solve a share skips the edge if both its bounds,
        times ``1 + BOUND_MARGIN``, fall below the running keep-th
        largest of the memoized findings, this sweep's findings and the
        unsolved edges' lower bounds (shared under a lock).  The calling
        thread solves on the oracle's own instance, helper threads each
        on one of their own; per-edge solves are isolated, so no result
        depends on which thread solved it.  With a ``limit``, returns
        True, and stops every share, once a finding passes it or an
        unsolved edge's lower bound passes it by the margin.  Results
        enter the memo on the calling thread, after the sweep.
        """
        known = np.array(self._findings(loaded))
        if limit is not None and len(known) and known.max() > limit:
            return True
        pending = self._pending(loaded)
        if not pending:
            return False
        dense = self._rows(pending)
        lower = self._lower_bounds(dense)
        if limit is not None and lower.max() > limit * (1.0 + BOUND_MARGIN):
            return True
        edges = [edge for edge, _objective in pending.values()]
        upper = np.array([self._upper_bound(edge, row) for edge, row in zip(edges, dense)])
        skip_below = np.maximum(lower, upper) * (1.0 + BOUND_MARGIN)
        # Per unsolved objective: how many loaded edges share it, and the
        # best lower bound on its finding so far (its value once solved).
        index = {key: i for i, key in enumerate(pending)}
        counts = np.bincount(
            [index[key] for _edge, _objective, key in loaded if key in index],
            minlength=len(pending),
        )
        bound = lower.copy()
        objectives = [objective for _edge, objective in pending.values()]
        queue = iter(np.lexsort((-upper, -lower)).tolist())
        results: list[tuple[float, np.ndarray] | None] = [None] * len(pending)
        lock = threading.Lock()
        stop = threading.Event()
        passed = False

        def threshold() -> float:
            return _kth_largest(np.concatenate([known, np.repeat(bound, counts)]), keep)

        def solve_share(reusable: ReusableLP) -> None:
            nonlocal passed
            try:
                while not stop.is_set():
                    with lock:
                        item = next(queue, None)
                        if item is None:
                            return
                        if skip_below[item] < threshold():
                            continue
                    result = self._solve(objectives[item], reusable)
                    with lock:
                        results[item] = result
                        bound[item] = result[0] if result[1].any() else -math.inf
                    if limit is not None and _passes(result, limit):
                        passed = True
                        stop.set()
            except BaseException:
                stop.set()
                raise

        shares = min(lp_backend.lp_threads(), len(pending))
        if shares <= 1:
            solve_share(self._reusable)
        else:
            while len(self._helper_lps) < shares - 1:
                self._helper_lps.append(self._compiled.reusable())
            # Leaving the block waits for every helper, even when share 0
            # raised, so no helper still holds its instance after a sweep.
            with ThreadPoolExecutor(shares - 1, thread_name_prefix="lp-sweep") as pool:
                futures = [pool.submit(solve_share, lp) for lp in self._helper_lps[: shares - 1]]
                solve_share(self._reusable)
            for future in futures:
                future.result()
        for (key, (edge, objective)), result in zip(pending.items(), results):
            if result is not None:
                self._remember(key, edge, objective, result)
        return passed


def evaluate_reference(oracle: WorstCaseOracle, routing: Routing) -> OracleResult:
    """The every-edge evaluation the pruned sweep must match (tests only).

    Solves, serially, every loaded edge the oracle's memo lacks, and
    reports every loaded edge in ``per_edge``; ratio, edge, demand and
    cuts are :meth:`WorstCaseOracle.evaluate`'s bit for bit, and its
    ``per_edge`` is this one's restricted to values at or above the
    :data:`CUTS_PER_ROUND`-th largest finding.
    """
    per_edge: dict[Edge, float] = {}
    findings: list[tuple[float, Edge, np.ndarray]] = []
    for edge, objective, key in oracle._loaded(routing.load_coefficients(oracle.demand_pairs)):
        if key is None:
            per_edge[edge] = 0.0
            continue
        result = oracle._memo.get(key)
        if result is None:
            result = oracle._solve(objective, oracle._reusable)
            oracle._remember(key, edge, objective, result)
        utilization, demand = result
        per_edge[edge] = utilization
        if demand.any():
            findings.append((utilization, edge, demand))
    return oracle._outcome(findings, per_edge)


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
