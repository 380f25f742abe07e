"""The worst-case oracle's per-objective memo and its bounded evaluation.

An oracle solves each distinct per-edge objective once, and
``evaluate_within`` stops its sweep as soon as an edge passes a limit.
Neither may change a result: every memoized answer must equal a fresh
solve bit for bit, and every experiment that now shares one
oracle between the robust solve and its scores must report what
scoring each scheme on a fresh oracle reports.
"""

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
from repro.demands.uncertainty import margin_box, oblivious_pairs
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import inverse_capacity_weights
from repro.experiments.common import solve_margin_cell
from repro.experiments.fig10_approximation import solve_fig10_cell
from repro.experiments.fig9_local_search import solve_fig9_cell
from repro.experiments.running_example import example_dag, fig1b_routing
from repro.lp import backend as lp_backend
from repro.lp.dag_flow import optimal_dag_routing
from repro.lp.model import ReusableLP
from repro.lp.worst_case import OracleResult, WorstCaseOracle
from repro.routing.splitting import Routing
from repro.runner.memo import clear_all_memos
from repro.runner.spec import SweepCell, freeze_params
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
    """Make every ``evaluate`` run on a brand-new oracle (no shared memo)."""
    evaluate = WorstCaseOracle.evaluate

    def on_a_fresh_oracle(self, routing, *args, **kwargs):
        fresh = WorstCaseOracle(
            self.network, self.uncertainty, dags=self.dags, config=self.config
        )
        return evaluate(fresh, routing, *args, **kwargs)

    monkeypatch.setattr(WorstCaseOracle, "evaluate", on_a_fresh_oracle)


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
        first = oracle.evaluate(abilene["base"])
        assert len(solves) == len(first.per_edge) > 4
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
        coefficients = abilene["base"].load_coefficients(oracle.demand_pairs)
        for edge, coeffs in coefficients.items():
            utilization, demand = oracle.worst_utilization_for_edge(edge, coeffs)
            if not utilization:
                continue
            capacity = abilene["network"].capacity(*edge)
            variables = oracle._demand_vars
            objective = {
                variables[pair].index: c / capacity
                for pair, c in coeffs.items()
                if pair in variables and c > 0.0
            }
            solution = oracle._reusable.solve(objective, maximize=True)
            reference = {
                pair: solution.value(var)
                for pair, var in variables.items()
                if solution.value(var) > 1e-10
            }
            assert utilization == solution.objective
            assert dict(demand.items()) == reference
            assert list(demand.pairs()) == list(reference)

    def test_the_direct_edge_solve_bypasses_the_memo(self, abilene, solves):
        oracle = _oracle(abilene)
        result = oracle.evaluate(abilene["ecmp"])
        coefficients = abilene["ecmp"].load_coefficients(oracle.demand_pairs)
        solves.clear()
        utilization, demand = oracle.worst_utilization_for_edge(
            result.edge, coefficients[result.edge]
        )
        assert len(solves) == 1
        assert utilization == result.ratio
        assert demand == result.demand


class TestEvaluateWithin:
    @pytest.mark.parametrize("threads", (1, 2, 4))
    def test_matches_evaluate_around_the_ratio(self, abilene, threads):
        lp_backend.set_lp_threads(threads)
        order = _oracle(abilene).evaluate(abilene["base"]).per_edge
        for scheme in ("ecmp", "base"):
            full = _oracle(abilene).evaluate(abilene[scheme])
            ratio = full.ratio
            limits = (math.nextafter(ratio, -math.inf), ratio, math.nextafter(ratio, math.inf))
            for limit in limits:
                for edge_order in (None, order):
                    result = _oracle(abilene).evaluate_within(abilene[scheme], limit, edge_order)
                    case = (scheme, limit, edge_order is None)
                    assert (result is None) == (ratio > limit), case
                    if result is not None:
                        assert snapshot(result) == snapshot(full), case

    def test_stops_at_the_first_edge_past_the_limit(self, abilene, solves):
        lp_backend.set_lp_threads(1)
        full = _oracle(abilene).evaluate(abilene["ecmp"])
        solves.clear()
        oracle = _oracle(abilene)
        assert oracle.evaluate_within(abilene["ecmp"], full.ratio / 2, full.per_edge) is None
        assert len(solves) == 1
        # The memoized hot edge alone now settles the same question.
        solves.clear()
        assert oracle.evaluate_within(abilene["ecmp"], full.ratio / 2) is None
        assert solves == []

    def test_a_result_leaves_every_edge_solved(self, abilene, solves):
        oracle = _oracle(abilene)
        fresh = _oracle(abilene).evaluate(abilene["ecmp"])
        solves.clear()
        assert snapshot(oracle.evaluate_within(abilene["ecmp"], fresh.ratio)) == snapshot(fresh)
        solves.clear()
        assert snapshot(oracle.evaluate(abilene["ecmp"])) == snapshot(fresh)
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
    """Eight threads, frequent switches: answers and memo entries stay exact."""
    lp_backend.set_lp_threads(1)
    reference = _oracle(abilene)
    ratios = {scheme: reference.evaluate(abilene[scheme]).ratio for scheme in ("ecmp", "base")}
    lp_backend.set_lp_threads(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for scheme, ratio in ratios.items():
            for limit in (ratio / 2, math.nextafter(ratio, -math.inf), ratio, ratio * 2):
                oracle = _oracle(abilene)
                result = oracle.evaluate_within(abilene[scheme], limit)
                assert (result is None) == (ratio > limit)
                for key, (utilization, demand) in oracle._memo.items():
                    expected_utilization, expected_demand = reference._memo[key]
                    assert utilization == expected_utilization
                    assert (demand == expected_demand).all()
    finally:
        sys.setswitchinterval(interval)


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
        self._compare(monkeypatch, solves, lambda: solve_fig9_cell(cell))

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
