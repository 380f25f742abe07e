"""Tests for Algorithm 1 (local-search weight optimization)."""

import pytest

from repro.config import SolverConfig
from repro.core.local_search import (
    LocalSearchResult,
    MAX_WEIGHT,
    local_search_weights,
    weight_search,
)
from repro.demands.gravity import gravity_matrix
from repro.demands.uncertainty import margin_box
from repro.ecmp.weights import integer_scaled_weights, inverse_capacity_weights
from repro.kernel.delta import ecmp_max_utilization
from repro.lp.worst_case import normalize_to_unit_optimum

FAST = SolverConfig(max_adversarial_rounds=3, max_inner_iterations=10)


class TestWeightSearch:
    def test_improves_or_keeps_objective(self, abilene):
        weights = integer_scaled_weights(inverse_capacity_weights(abilene), MAX_WEIGHT)
        base = normalize_to_unit_optimum(abilene, gravity_matrix(abilene))
        before = ecmp_max_utilization(abilene, weights, [base])
        improved = weight_search(abilene, weights, [base], FAST, max_moves=4)
        after = ecmp_max_utilization(abilene, improved, [base])
        assert after <= before + 1e-9

    def test_weights_stay_integer_in_range(self, abilene):
        weights = integer_scaled_weights(inverse_capacity_weights(abilene), MAX_WEIGHT)
        base = normalize_to_unit_optimum(abilene, gravity_matrix(abilene))
        improved = weight_search(abilene, weights, [base], FAST, max_moves=3)
        assert all(isinstance(v, int) and 1 <= v <= MAX_WEIGHT for v in improved.values())

    def test_empty_matrices_noop(self, abilene):
        weights = integer_scaled_weights(inverse_capacity_weights(abilene), MAX_WEIGHT)
        assert weight_search(abilene, weights, [], FAST) == weights

    def test_ecmp_utilization_no_matrices(self, abilene):
        weights = integer_scaled_weights(inverse_capacity_weights(abilene), MAX_WEIGHT)
        assert ecmp_max_utilization(abilene, weights, []) == 0.0


class TestAlgorithm1:
    def test_runs_and_reports(self, nsf):
        base = gravity_matrix(nsf)
        result = local_search_weights(
            nsf, margin_box(base, 2.0), bound=1.0, config=FAST
        )
        assert isinstance(result, LocalSearchResult)
        assert result.rounds >= 1
        assert len(result.history) == result.rounds
        assert result.matrices  # at least one critical matrix found

    def test_final_ratio_not_worse_than_first(self, nsf):
        base = gravity_matrix(nsf)
        result = local_search_weights(
            nsf, margin_box(base, 2.0), bound=1.0, config=FAST
        )
        # The heuristic keeps the last weights; its oracle ratio should
        # not exceed the initial (inverse-capacity) ratio meaningfully.
        assert result.oracle_ratio <= result.history[0] * 1.25

    def test_terminates_at_bound(self, abilene):
        # An absurdly generous bound terminates after the first round.
        result = local_search_weights(abilene, bound=1e9, config=FAST)
        assert result.rounds == 1

    def test_critical_matrices_are_normalized(self, abilene):
        base = gravity_matrix(abilene)
        result = local_search_weights(
            abilene, margin_box(base, 2.0), bound=1.0, config=FAST
        )
        from repro.lp.mcf import min_congestion

        for dm in result.matrices[:2]:
            assert min_congestion(abilene, dm).alpha == pytest.approx(1.0, abs=1e-6)
