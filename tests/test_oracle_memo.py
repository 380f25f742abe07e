"""The worst-case oracle's per-objective memo and its pruned sweeps.

An oracle solves each distinct per-edge objective once; ``evaluate``,
``ratio`` and ``evaluate_within`` solve only the edges the memo's bounds
cannot rule out of the top findings, and ``evaluate_within`` stops its
sweep as soon as an edge passes a limit.  None may change a result:
every memoized answer must equal a fresh solve bit for bit; all three
must match the every-edge reference (``evaluate_reference``) bit for bit
whatever the memo holds and however many threads sweep; and every
experiment that now shares one oracle between the robust solve and its
scores must report what scoring each scheme on a fresh oracle reports.
"""

import functools
import math
import sys
from collections import Counter

import pytest

from repro.config import SolverConfig
from repro.core.dag_builder import build_dags
from repro.core.evaluate import project_ecmp_into_dags
from repro.core.failures import precompute_failure_plan
from repro.core.robust import optimize_robust_splitting
from repro.demands.bimodal import bimodal_matrix
from repro.demands.gravity import gravity_matrix
from repro.demands.uncertainty import margin_box, oblivious_pairs, oblivious_set
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import inverse_capacity_weights
from repro.experiments.common import coyote_partial_for_margin, prepare_setup, solve_margin_cell
from repro.experiments.fig10_approximation import solve_fig10_cell
from repro.experiments.fig9_local_search import solve_fig9_cell
from repro.experiments.running_example import example_dag, fig1b_routing
from repro.lp import backend as lp_backend
from repro.lp.dag_flow import optimal_dag_routing
from repro.lp.model import ReusableLP
from repro.lp.worst_case import (
    CUTS_PER_ROUND,
    OracleResult,
    WorstCaseOracle,
    evaluate_reference,
)
from repro.routing.splitting import Routing
from repro.runner.memo import clear_all_memos
from repro.runner.spec import SweepCell, freeze_params
from repro.topologies.generators import ring_network, running_example_network
from repro.topologies.zoo import load_topology

TINY = SolverConfig(
    max_adversarial_rounds=2, max_inner_iterations=10, smoothing_temperatures=(8.0, 64.0)
)


@pytest.fixture(autouse=True)
def default_lp_threads():
    yield
    lp_backend.set_lp_threads(None)


@pytest.fixture
def solves(monkeypatch):
    """Every LP solve of an oracle instance, helper threads included."""
    calls: list[int] = []
    solve = ReusableLP.solve

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(ReusableLP, "solve", counted)
    return calls


def score_on_fresh_oracles(monkeypatch) -> None:
    """Make every ``evaluate`` and ``ratio`` run the every-edge reference
    evaluation on a brand-new oracle (no shared memo, no pruning)."""

    def on_a_fresh_oracle(self, routing):
        fresh = WorstCaseOracle(
            self.network, self.uncertainty, dags=self.dags, config=self.config
        )
        return evaluate_reference(fresh, routing)

    monkeypatch.setattr(WorstCaseOracle, "evaluate", on_a_fresh_oracle)
    monkeypatch.setattr(
        WorstCaseOracle, "ratio", lambda self, routing: on_a_fresh_oracle(self, routing).ratio
    )


def top_edges(oracle: WorstCaseOracle, routing: Routing, per_edge: dict) -> dict:
    """``per_edge`` restricted to values at or above the routing's
    ``CUTS_PER_ROUND``-th largest finding, as ``oracle``'s memo holds it."""
    coefficients = routing.load_coefficients(oracle.demand_pairs)
    memoized = [oracle._memo[key] for _e, _o, key in oracle._loaded(coefficients) if key]
    findings = sorted((value for value, demand in memoized if demand.any()), reverse=True)
    floor = findings[CUTS_PER_ROUND - 1] if len(findings) >= CUTS_PER_ROUND else -math.inf
    return {edge: value for edge, value in per_edge.items() if value >= floor}


def reference_snapshot(oracle: WorstCaseOracle, routing: Routing) -> tuple:
    """The reference's snapshot with the pruned sweep's ``per_edge``."""
    result = evaluate_reference(oracle, routing)
    result.per_edge = top_edges(oracle, routing, result.per_edge)
    return snapshot(result)


def snapshot(result: OracleResult) -> tuple:
    """Every field of a result, in a form ``==`` compares bit for bit."""
    return (
        result.ratio,
        result.edge,
        dict(result.demand.items()) if result.demand is not None else None,
        list(result.per_edge.items()),
        [dict(cut.items()) for cut in result.cuts],
    )


@pytest.fixture(scope="module")
def abilene():
    network = load_topology("abilene")
    weights = inverse_capacity_weights(network)
    dags = build_dags(network, weights, augment=True)
    base = bimodal_matrix(network, 7)
    ecmp = ecmp_routing(network, weights)
    return {
        "network": network,
        "dags": dags,
        "cone": margin_box(base, 2.0),
        "ecmp": ecmp,
        "projection": project_ecmp_into_dags(ecmp, dags),
        "base": optimal_dag_routing(network, dags, base, name="Base"),
    }


def _oracle(setup) -> WorstCaseOracle:
    return WorstCaseOracle(setup["network"], setup["cone"], dags=setup["dags"])


class TestMemo:
    def test_a_second_evaluate_solves_nothing(self, abilene, solves):
        oracle = _oracle(abilene)
        solves.clear()  # the oracle's own build solves one LP for its caps
        first = oracle.evaluate(abilene["base"])
        # Each solve is one memo entry; the edges the result reports are
        # among them, and the sweep skipped some edges.
        coefficients = abilene["base"].load_coefficients(oracle.demand_pairs)
        loaded = oracle._loaded(coefficients)
        assert len(first.per_edge) >= CUTS_PER_ROUND
        assert len(first.per_edge) <= len(solves) == len(oracle._memo) < len(loaded)
        solves.clear()
        second = oracle.evaluate(abilene["base"])
        assert solves == []
        assert snapshot(second) == snapshot(first)

    def test_memoized_results_equal_a_fresh_oracle(self, abilene):
        oracle = _oracle(abilene)
        for scheme in ("ecmp", "base", "projection"):
            oracle.evaluate(abilene[scheme])
        for scheme in ("ecmp", "base", "projection"):
            fresh = _oracle(abilene).evaluate(abilene[scheme])
            assert snapshot(oracle.evaluate(abilene[scheme])) == snapshot(fresh), scheme

    def test_ecmp_and_its_projection_share_their_solves(self, abilene, solves):
        oracle = _oracle(abilene)
        ecmp = oracle.evaluate(abilene["ecmp"])
        solves.clear()
        projection = oracle.evaluate(abilene["projection"])
        assert solves == []
        assert projection.ratio == ecmp.ratio
        assert projection.per_edge == ecmp.per_edge

    def test_demand_extraction_matches_the_per_pair_loop(self, abilene):
        oracle = _oracle(abilene)
        result = oracle.evaluate(abilene["base"])
        coefficients = abilene["base"].load_coefficients(oracle.demand_pairs)
        variables = oracle._demand_vars
        assert result.edge in result.per_edge
        for edge, utilization in result.per_edge.items():
            capacity = abilene["network"].capacity(*edge)
            objective = {
                variables[pair].index: c / capacity
                for pair, c in coefficients[edge].items()
                if pair in variables and c > 0.0
            }
            solution = oracle._reusable.solve(objective, maximize=True)
            assert utilization == solution.objective, edge
            if edge != result.edge:
                continue
            reference = {
                pair: solution.value(var)
                for pair, var in variables.items()
                if solution.value(var) > 1e-10
            }
            assert dict(result.demand.items()) == reference
            assert list(result.demand.pairs()) == list(reference)


class TestEvaluateWithin:
    @pytest.mark.parametrize("threads", (1, 2, 4))
    def test_matches_evaluate_around_the_ratio(self, abilene, threads):
        lp_backend.set_lp_threads(threads)
        for scheme in ("ecmp", "base"):
            full = reference_snapshot(_oracle(abilene), abilene[scheme])
            ratio = full[0]
            limits = (math.nextafter(ratio, -math.inf), ratio, math.nextafter(ratio, math.inf))
            for limit in limits:
                # On a fresh oracle, and on one whose memo holds the other
                # scheme's solves (so its bounds prune the sweep).
                for warm in (False, True):
                    oracle = _oracle(abilene)
                    if warm:
                        oracle.evaluate(abilene["base" if scheme == "ecmp" else "ecmp"])
                    result = oracle.evaluate_within(abilene[scheme], limit)
                    case = (scheme, limit, warm)
                    assert (result is None) == (ratio > limit), case
                    if result is not None:
                        assert snapshot(result) == full, case

    def test_stops_at_the_first_edge_past_the_limit(self, abilene, solves):
        lp_backend.set_lp_threads(1)
        full = _oracle(abilene).evaluate(abilene["ecmp"])
        oracle = _oracle(abilene)
        solves.clear()
        # The sweep takes the edge with the largest (box) upper bound first.
        assert oracle.evaluate_within(abilene["ecmp"], full.ratio / 2) is None
        assert len(solves) == 1
        # The memoized hot edge alone now settles the same question.
        solves.clear()
        assert oracle.evaluate_within(abilene["ecmp"], full.ratio / 2) is None
        assert solves == []

    def test_a_result_leaves_every_edge_solved(self, abilene, solves):
        # Every edge the evaluation needs: a later evaluate solves nothing.
        oracle = _oracle(abilene)
        fresh = reference_snapshot(_oracle(abilene), abilene["ecmp"])
        solves.clear()
        assert snapshot(oracle.evaluate_within(abilene["ecmp"], fresh[0])) == fresh
        solves.clear()
        assert snapshot(oracle.evaluate(abilene["ecmp"])) == fresh
        assert solves == []

    def test_a_ratio_without_findings_is_zero(self, running_example):
        # No cone pair reaches a DAG destination: nothing loads an edge,
        # so the ratio is 0.0, which is above a negative limit.
        dags = {"t": example_dag(running_example)}
        oracle = WorstCaseOracle(running_example, oblivious_pairs([("s1", "s2")]), dags=dags)
        routing = fig1b_routing(running_example)
        assert oracle.evaluate(routing).ratio == 0.0
        assert oracle.evaluate_within(routing, -1.0) is None
        assert oracle.evaluate_within(routing, 0.0).ratio == 0.0


def test_early_exit_under_thread_stress(abilene):
    """Eight threads, frequent switches: answers and memo entries stay exact.

    The threads share the sweep's threshold; a lost update to it could
    skip an edge that reaches the top findings and change a result.
    """
    lp_backend.set_lp_threads(1)
    reference = _oracle(abilene)
    expected = {
        scheme: reference_snapshot(reference, abilene[scheme]) for scheme in ("ecmp", "base")
    }
    lp_backend.set_lp_threads(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for scheme, full in expected.items():
            ratio = full[0]
            assert snapshot(_oracle(abilene).evaluate(abilene[scheme])) == full
            for limit in (ratio / 2, math.nextafter(ratio, -math.inf), ratio, ratio * 2):
                oracle = _oracle(abilene)
                result = oracle.evaluate_within(abilene[scheme], limit)
                assert (result is None) == (ratio > limit)
                assert result is None or snapshot(result) == full
                for key, (utilization, demand) in oracle._memo.items():
                    expected_utilization, expected_demand = reference._memo[key]
                    assert utilization == expected_utilization
                    assert (demand == expected_demand).all()
    finally:
        sys.setswitchinterval(interval)


TOPOLOGIES = ("running-example", "ring-6", "abilene", "nsf")


@functools.cache
def _scoring_instance(topology: str) -> dict:
    """A topology's DAGs, four fixed routings and both cones."""
    if topology == "running-example":
        network = running_example_network()
    elif topology == "ring-6":
        network = ring_network(6)
    else:
        network = load_topology(topology)
    weights = inverse_capacity_weights(network)
    dags = build_dags(network, weights, augment=True)
    base = bimodal_matrix(network, 7)
    ecmp = ecmp_routing(network, weights)
    return {
        "network": network,
        "dags": dags,
        "routings": {
            "ecmp": ecmp,
            "projection": project_ecmp_into_dags(ecmp, dags),
            "base": optimal_dag_routing(network, dags, base, name="Base"),
            "gravity": optimal_dag_routing(network, dags, gravity_matrix(network), name="gravity"),
        },
        "cones": {"margin": margin_box(base, 2.0), "oblivious": oblivious_set(network.nodes())},
    }


def _scoring_oracle(topology: str, cone: str) -> WorstCaseOracle:
    instance = _scoring_instance(topology)
    return WorstCaseOracle(instance["network"], instance["cones"][cone], dags=instance["dags"])


@functools.cache
def _references(topology: str, cone: str) -> dict[str, tuple]:
    """Each routing's reference snapshot (see ``reference_snapshot``), each
    on a fresh oracle."""
    routings = _scoring_instance(topology)["routings"]
    return {
        name: reference_snapshot(_scoring_oracle(topology, cone), routing)
        for name, routing in routings.items()
    }


def _full_ratios(topology: str, cone: str) -> dict[str, float]:
    """Each routing's every-edge ratio, each on a fresh oracle."""
    return {name: reference[0] for name, reference in _references(topology, cone).items()}


class TestReference:
    """``evaluate``, ``ratio`` and ``evaluate_within`` against the every-edge
    reference, bit for bit, on memos filled in three orders."""

    @pytest.mark.parametrize("threads", (1, 2, 4))
    @pytest.mark.parametrize("cone", ("margin", "oblivious"))
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_pruned_sweeps_match_the_reference(self, topology, cone, threads):
        references = _references(topology, cone)
        lp_backend.set_lp_threads(threads)
        routings = _scoring_instance(topology)["routings"]
        names = list(routings)
        for order in (names, names[::-1], names[1:] + names[:1]):
            oracle = _scoring_oracle(topology, cone)
            # Each routing meets a different entry point at a different
            # memo state; a rejected bounded check leaves a partial memo.
            for index, name in enumerate(order):
                routing, reference = routings[name], references[name]
                case = (order, name)
                if index % 3 == 0:
                    assert snapshot(oracle.evaluate(routing)) == reference, case
                elif index % 3 == 1:
                    assert oracle.ratio(routing) == reference[0], case
                else:
                    assert oracle.evaluate_within(routing, reference[0] / 2) is None, case
                    assert snapshot(oracle.evaluate_within(routing, reference[0])) == reference
            for name in order:
                assert snapshot(oracle.evaluate(routings[name])) == references[name], (order, name)


class TestRatio:
    """``ratio`` is ``evaluate(...).ratio`` bit for bit, on fewer solves."""

    @pytest.mark.parametrize("threads", (1, 2))
    @pytest.mark.parametrize("cone", ("margin", "oblivious"))
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_equals_evaluate_whatever_the_memo_holds(self, topology, cone, threads):
        full = _full_ratios(topology, cone)
        assert max(full.values()) > 1.0
        lp_backend.set_lp_threads(threads)
        routings = _scoring_instance(topology)["routings"]
        names = list(routings)
        # Each order starts on a fresh oracle; every other routing is
        # first rejected by a bounded check, which leaves a partial memo.
        for order in (names, names[::-1], names[1:] + names[:1]):
            oracle = _scoring_oracle(topology, cone)
            for index, name in enumerate(order):
                if index % 2:
                    assert oracle.evaluate_within(routings[name], full[name] / 2) is None
                assert oracle.ratio(routings[name]) == full[name], (order, name)

    @pytest.fixture(scope="class")
    def margin_setup(self):
        network = load_topology("abilene")
        return prepare_setup(network, bimodal_matrix(network, 7), TINY)

    @staticmethod
    def _table(setup, partial) -> list[Routing]:
        return [setup.ecmp, setup.base_routing, setup.coyote_oblivious, partial.routing]

    @pytest.mark.parametrize("threads", (1, 2))
    def test_equals_evaluate_after_a_margin_solve(self, margin_setup, threads):
        lp_backend.set_lp_threads(threads)
        partial = coyote_partial_for_margin(margin_setup, 2.0)
        oracle = partial.evaluator
        for routing in self._table(margin_setup, partial):
            fresh = WorstCaseOracle(oracle.network, oracle.uncertainty, dags=oracle.dags)
            assert oracle.ratio(routing) == evaluate_reference(fresh, routing).ratio, routing.name

    def test_table_scoring_skips_most_solves(self, margin_setup, solves):
        # Serial solves leave the same memo on both runs of the solve.
        lp_backend.set_lp_threads(1)
        schemes = self._table(margin_setup, coyote_partial_for_margin(margin_setup, 2.0))[:3]
        evaluated = coyote_partial_for_margin(margin_setup, 2.0).evaluator
        solves.clear()
        full = [evaluate_reference(evaluated, routing).ratio for routing in schemes]
        full_solves = len(solves)
        bounded = coyote_partial_for_margin(margin_setup, 2.0).evaluator
        solves.clear()
        assert [bounded.ratio(routing) for routing in schemes] == full
        assert len(solves) <= 0.35 * full_solves, (len(solves), full_solves)

    def test_a_lower_bound_past_the_limit_rejects_without_solving(self, abilene, solves):
        oracle = _oracle(abilene)
        cuts = oracle.evaluate(abilene["base"]).cuts
        ecmp = abilene["ecmp"]
        # ECMP shares no objective with Base, so no memoized finding of
        # its own settles the check: its load under a memoized cut does.
        coefficients = ecmp.load_coefficients(oracle.demand_pairs)
        assert len(oracle._pending(oracle._loaded(coefficients))) == len(
            oracle._loaded(coefficients)
        )
        lower = max(ecmp.max_link_utilization(cut, abilene["network"]) for cut in cuts)
        solves.clear()
        assert oracle.evaluate_within(ecmp, lower / 2) is None
        assert solves == []
        assert evaluate_reference(_oracle(abilene), ecmp).ratio > lower / 2


class TestSharedOracleResults:
    """Sharing one oracle per cell reports what fresh oracles report."""

    @staticmethod
    def _cell(kind: str, **params) -> SweepCell:
        return SweepCell(
            experiment="test", topology="abilene", demand_model="bimodal", margin=2.0,
            seed=7, solver=TINY, kind=kind, params=freeze_params(params),
        )

    @staticmethod
    def _compare(monkeypatch, solves, solve):
        """Run ``solve`` as is, then on fresh oracles; both must agree.

        Also checks that the first run built one oracle per (network,
        DAGs, cone) and that sharing saved solves.  Setup memos are
        cleared around each run, so both runs solve from scratch.
        """
        built: Counter = Counter()
        init = WorstCaseOracle.__init__

        def counted_init(self, network, uncertainty, dags=None, **kwargs):
            witness = None if dags is None else tuple((t, id(d)) for t, d in dags.items())
            cone = (uncertainty.pairs, tuple(uncertainty.bounds.items()), uncertainty.oblivious)
            built[(id(network), witness, cone)] += 1
            init(self, network, uncertainty, dags=dags, **kwargs)

        clear_all_memos()
        solves.clear()
        with monkeypatch.context() as patched:
            patched.setattr(WorstCaseOracle, "__init__", counted_init)
            shared = solve()
        shared_solves = len(solves)
        assert built and max(built.values()) == 1
        with monkeypatch.context() as patched:
            score_on_fresh_oracles(patched)
            clear_all_memos()
            solves.clear()
            fresh = solve()
        clear_all_memos()
        assert shared == fresh
        assert shared_solves < len(solves)
        return shared

    def test_margin_cell(self, monkeypatch, solves):
        row = self._compare(monkeypatch, solves, lambda: solve_margin_cell(self._cell("margin")))
        assert set(row) == {"ECMP", "Base", "COYOTE-obl", "COYOTE-pk"}

    def test_fig9_cell(self, monkeypatch, solves):
        cell = self._cell("fig9-local-search")
        row = self._compare(monkeypatch, solves, lambda: solve_fig9_cell(cell))
        # Fig. 9's claim: on the local-search DAGs COYOTE beats ECMP.
        assert row["ECMP/COYOTE"] > 1.0

    def test_fig10_cells(self, monkeypatch, solves):
        cells = [self._cell("fig10-nh-approx", budget=budget) for budget in (None, 3)]
        rows = self._compare(monkeypatch, solves, lambda: [solve_fig10_cell(c) for c in cells])
        assert set(rows[0]) == {"ECMP", "ideal"}

    def test_failure_plan(self, monkeypatch, solves):
        network = load_topology("abilene")
        cone = margin_box(gravity_matrix(network), 2.0)

        def plan():
            result = precompute_failure_plan(network, cone, TINY, max_scenarios=2)
            return (
                result.baseline_ratio,
                [(s.failed_link, s.ratio, s.ecmp_ratio, s.routing.ratios)
                 for s in result.scenarios],
                result.skipped,
            )

        self._compare(monkeypatch, solves, plan)


class TestRobustLoopOracle:
    @pytest.fixture
    def example(self, running_example):
        dags = {"t": example_dag(running_example)}
        users = oblivious_pairs([("s1", "t"), ("s2", "t")])
        return running_example, dags, users

    def test_a_tying_fallback_keeps_the_incumbent(self, example):
        network, dags, users = example
        alone = optimize_robust_splitting(network, dags, users)
        twin = Routing(dags, alone.routing.ratios, name="twin")
        result = optimize_robust_splitting(network, dags, users, fallbacks=[twin])
        assert result.routing is not twin
        assert result.routing.name == "COYOTE"
        assert result.oracle.ratio == alone.oracle.ratio

    def test_a_better_fallback_still_wins(self, example):
        network, dags, users = example
        crippled = SolverConfig(
            max_adversarial_rounds=1, max_inner_iterations=1, smoothing_temperatures=(1.0,)
        )
        good = optimize_robust_splitting(network, dags, users)
        fallback = Routing(dags, good.routing.ratios, name="good")
        alone = optimize_robust_splitting(network, dags, users, config=crippled)
        assert good.oracle.ratio < alone.oracle.ratio
        result = optimize_robust_splitting(
            network, dags, users, config=crippled, fallbacks=[fallback]
        )
        assert result.routing is fallback
        assert snapshot(result.oracle) == snapshot(good.oracle)

    def test_the_evaluator_carries_the_solves(self, example, solves):
        network, dags, users = example
        result = optimize_robust_splitting(network, dags, users)
        solves.clear()
        assert snapshot(result.evaluator.evaluate(result.routing)) == snapshot(result.oracle)
        assert solves == []
        fresh = WorstCaseOracle(network, users, dags=dags)
        assert snapshot(result.oracle) == reference_snapshot(fresh, result.routing)
