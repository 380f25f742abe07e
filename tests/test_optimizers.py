"""Tests for the splitting optimizers (softmax + GP) and the robust loop."""

import math

import pytest

from repro.config import SolverConfig
from repro.core.gp import optimize_splitting_gp
from repro.core.robust import optimize_robust_splitting
from repro.core.softmax_opt import optimize_splitting_softmax
from repro.demands.matrix import DemandMatrix
from repro.demands.uncertainty import margin_box, oblivious_pairs
from repro.exceptions import SolverError
from repro.experiments.running_example import example_dag, fig1b_routing
from repro.lp.worst_case import WorstCaseOracle, normalize_to_unit_optimum
from repro.routing.splitting import uniform_ratios

GOLDEN = math.sqrt(5.0) - 1.0


@pytest.fixture
def example_problem(running_example):
    dag = example_dag(running_example)
    dags = {"t": dag}
    matrices = [
        normalize_to_unit_optimum(running_example, DemandMatrix({("s1", "t"): 2.0}), dags=dags),
        normalize_to_unit_optimum(running_example, DemandMatrix({("s2", "t"): 2.0}), dags=dags),
    ]
    return running_example, dags, matrices


class TestSoftmaxOptimizer:
    def test_reaches_near_golden_ratio(self, example_problem):
        net, dags, matrices = example_problem
        solution = optimize_splitting_softmax(net, dags, matrices)
        assert solution.objective == pytest.approx(GOLDEN, abs=0.02)

    def test_routing_is_valid(self, example_problem):
        net, dags, matrices = example_problem
        solution = optimize_splitting_softmax(net, dags, matrices)
        solution.routing.validate()

    def test_warm_start_respected(self, example_problem):
        net, dags, matrices = example_problem
        start = {"t": uniform_ratios(dags["t"])}
        solution = optimize_splitting_softmax(
            net, dags, matrices, initial_ratios=[start]
        )
        assert solution.objective <= 4.0 / 3.0 + 0.05

    def test_empty_matrices_rejected(self, example_problem):
        net, dags, _ = example_problem
        with pytest.raises(SolverError):
            optimize_splitting_softmax(net, dags, [])

    def test_objective_not_worse_than_any_start(self, example_problem):
        """The optimizer keeps the best iterate, including the starts."""
        net, dags, matrices = example_problem
        from repro.core.softmax_opt import _Problem

        start = {"t": uniform_ratios(dags["t"])}
        problem = _Problem(net, dags, matrices)
        start_value = problem.true_objective(problem.theta_from_ratios(start))
        solution = optimize_splitting_softmax(
            net, dags, matrices, initial_ratios=[start]
        )
        assert solution.objective <= start_value + 1e-9


class TestGpOptimizer:
    def test_hits_golden_ratio_exactly(self, example_problem):
        net, dags, matrices = example_problem
        solution = optimize_splitting_gp(net, dags, matrices)
        assert solution.objective == pytest.approx(GOLDEN, abs=1e-4)

    def test_golden_split_ratios(self, example_problem):
        net, dags, matrices = example_problem
        solution = optimize_splitting_gp(net, dags, matrices)
        phi = solution.routing.ratios["t"]
        inverse_golden = (math.sqrt(5.0) - 1.0) / 2.0
        assert phi[("s1", "s2")] == pytest.approx(inverse_golden, abs=1e-3)
        assert phi[("s2", "t")] == pytest.approx(inverse_golden, abs=1e-3)

    def test_agrees_with_softmax(self, example_problem):
        net, dags, matrices = example_problem
        gp = optimize_splitting_gp(net, dags, matrices)
        sm = optimize_splitting_softmax(net, dags, matrices)
        assert gp.objective == pytest.approx(sm.objective, abs=0.03)

    def test_respects_initial_ratios(self, example_problem):
        net, dags, matrices = example_problem
        start = {"t": uniform_ratios(dags["t"])}
        solution = optimize_splitting_gp(net, dags, matrices, initial_ratios=start)
        assert solution.objective <= 4.0 / 3.0 + 1e-6


class TestRobustLoop:
    def test_oblivious_running_example(self, running_example):
        dags = {"t": example_dag(running_example)}
        users = oblivious_pairs([("s1", "t"), ("s2", "t")])
        result = optimize_robust_splitting(running_example, dags, users)
        # The optimum over the two-user oblivious set is the golden value.
        assert result.oracle.ratio == pytest.approx(GOLDEN, abs=0.02)

    def test_lower_bound_below_oracle(self, running_example):
        dags = {"t": example_dag(running_example)}
        users = oblivious_pairs([("s1", "t"), ("s2", "t")])
        result = optimize_robust_splitting(running_example, dags, users)
        assert result.objective <= result.oracle.ratio + 1e-6

    def test_fallback_guarantee(self, running_example):
        """With fallbacks, the result is never worse than the fallback."""
        dags = {"t": example_dag(running_example)}
        users = oblivious_pairs([("s1", "t"), ("s2", "t")])
        ecmp_like = fig1b_routing(running_example)
        oracle = WorstCaseOracle(running_example, users, dags=dags)
        fallback_ratio = oracle.evaluate(ecmp_like).ratio
        crippled = SolverConfig(
            max_adversarial_rounds=1,
            max_inner_iterations=1,
            smoothing_temperatures=(1.0,),
        )
        result = optimize_robust_splitting(
            running_example, dags, users, config=crippled, fallbacks=[ecmp_like]
        )
        assert result.oracle.ratio <= fallback_ratio + 1e-9

    def test_margin_box_optimization(self, running_example):
        dags = {"t": example_dag(running_example)}
        base = DemandMatrix({("s1", "t"): 1.0, ("s2", "t"): 1.0})
        box = margin_box(base, 2.0)
        result = optimize_robust_splitting(running_example, dags, box)
        # Bounded uncertainty is easier than oblivious.
        assert result.oracle.ratio <= GOLDEN + 0.02

    def test_gp_backend(self, running_example):
        dags = {"t": example_dag(running_example)}
        users = oblivious_pairs([("s1", "t"), ("s2", "t")])
        result = optimize_robust_splitting(
            running_example, dags, users, optimizer="gp"
        )
        assert result.oracle.ratio == pytest.approx(GOLDEN, abs=0.02)

    def test_unknown_optimizer_rejected(self, running_example):
        dags = {"t": example_dag(running_example)}
        users = oblivious_pairs([("s1", "t"), ("s2", "t")])
        with pytest.raises(SolverError, match="unknown splitting optimizer"):
            optimize_robust_splitting(running_example, dags, users, optimizer="magic")

    def test_history_is_recorded(self, running_example):
        dags = {"t": example_dag(running_example)}
        users = oblivious_pairs([("s1", "t"), ("s2", "t")])
        result = optimize_robust_splitting(running_example, dags, users)
        assert len(result.history) == result.rounds
        assert all(obj <= orc + 1e-6 for obj, orc in result.history[-1:])

    def test_polish_without_a_balance_matrix_is_rejected(self, running_example):
        # The cone only holds pairs toward s2, which has no DAG, so its
        # representative matrix is empty once cut down to the DAG
        # targets, while the seed matrix still gives T a member.
        dags = {"t": example_dag(running_example)}
        users = oblivious_pairs([("s1", "s2")])
        seed = DemandMatrix({("s1", "t"): 1.0})
        with pytest.raises(SolverError, match="representative matrix"):
            optimize_robust_splitting(running_example, dags, users, initial_matrices=[seed])


class TestRobustStopReason:
    """``RobustResult.stop`` names why the cutting-plane loop ended."""

    def test_converged(self, running_example):
        dags = {"t": example_dag(running_example)}
        users = oblivious_pairs([("s1", "t"), ("s2", "t")])
        result = optimize_robust_splitting(running_example, dags, users)
        assert result.stop == "converged"
        objective, ratio = result.history[-1]
        assert ratio <= objective * (1.0 + SolverConfig().ratio_tolerance)

    def test_round_cap(self, running_example):
        dags = {"t": example_dag(running_example)}
        users = oblivious_pairs([("s1", "t"), ("s2", "t")])
        config = SolverConfig(max_adversarial_rounds=1)
        result = optimize_robust_splitting(running_example, dags, users, config=config)
        assert result.stop == "round-cap"
        assert result.rounds == 1
        objective, ratio = result.history[-1]
        assert ratio > objective * (1.0 + config.ratio_tolerance)

    def test_cycling(self, running_example):
        # On a margin-1 ray every worst case is the base direction, which
        # T already holds; a tolerance no ratio can meet forces a cut.
        dags = {"t": example_dag(running_example)}
        ray = margin_box(DemandMatrix({("s1", "t"): 1.0, ("s2", "t"): 2.0}), 1.0)
        config = SolverConfig(ratio_tolerance=-0.5)
        result = optimize_robust_splitting(running_example, dags, ray, config=config)
        assert result.stop == "cycling"
        assert result.rounds == 1
        assert len(result.matrices) == 1
