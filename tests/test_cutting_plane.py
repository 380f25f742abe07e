"""The shared cutting-plane loop, on a scripted master and oracle.

Every stop reason, the incumbent rule (first lowest certified ratio),
the cut filter (empty cuts, dedupe at the tolerance) and the in-place
growth of ``T`` are pinned here without any LP, so a change of cut or
stop policy shows up in one place.
"""

import math

import pytest

from repro.config import SolverConfig
from repro.demands.matrix import DemandMatrix
from repro.exceptions import SolverError
from repro.lp.cutting_plane import cutting_plane
from repro.lp.worst_case import OracleResult

PAIR = ("a", "b")


def matrix(volume: float) -> DemandMatrix:
    return DemandMatrix({PAIR: volume})


def oracle(ratio: float, *cuts: DemandMatrix) -> OracleResult:
    return OracleResult(ratio, None, cuts[0] if cuts else None, {}, list(cuts))


class Script:
    """A master and an oracle that replay one (objective, result) per round."""

    def __init__(self, rounds):
        self.rounds = list(rounds)
        self.seen: list[list[DemandMatrix]] = []
        self.normalized: list[DemandMatrix] = []

    def master(self, matrices):
        """Round ``k``'s objective, with ``k`` as the candidate."""
        self.seen.append(matrices)
        return self.rounds[len(self.seen) - 1][0], len(self.seen)

    def certify(self, candidate):
        return self.rounds[candidate - 1][1]

    def normalize(self, cut):
        self.normalized.append(cut)
        return cut

    def run(self, matrices, rounds=10, tolerance=1e-3, dedupe=0.25):
        config = SolverConfig(ratio_tolerance=tolerance, max_adversarial_rounds=rounds)
        return cutting_plane(
            self.master, self.certify, self.normalize, matrices, config, dedupe
        )


class TestStop:
    def test_converged_when_the_ratio_is_within_tolerance_of_the_objective(self):
        script = Script([(1.0, oracle(2.0, matrix(2.0))), (1.0, oracle(1.001))])
        result = script.run([matrix(1.0)])
        assert result.stop == "converged"
        assert result.rounds == 2
        assert result.history == [(1.0, 2.0), (1.0, 1.001)]
        assert result.best == 2

    def test_a_ratio_past_the_tolerance_is_not_converged(self):
        ratio = math.nextafter(1.0 * (1.0 + 1e-3), math.inf)
        script = Script([(1.0, oracle(ratio, matrix(2.0))), (1.0, oracle(1.0))])
        result = script.run([matrix(1.0)])
        assert result.rounds == 2

    def test_a_round_without_findings_converges(self):
        script = Script([(1.0, oracle(0.0))])
        result = script.run([matrix(1.0)])
        assert (result.stop, result.rounds) == ("converged", 1)

    def test_cycling_when_no_cut_is_new(self):
        script = Script([(1.0, oracle(2.0, matrix(1.0)))])
        matrices = [matrix(1.0)]
        result = script.run(matrices)
        assert (result.stop, result.rounds) == ("cycling", 1)
        assert matrices == [matrix(1.0)]

    def test_round_cap_adds_the_last_rounds_cuts(self):
        script = Script([(1.0, oracle(2.0, matrix(v))) for v in (2.0, 3.0, 4.0)])
        matrices = [matrix(1.0)]
        result = script.run(matrices, rounds=3)
        assert (result.stop, result.rounds) == ("round-cap", 3)
        assert [m.get(*PAIR) for m in matrices] == [1.0, 2.0, 3.0, 4.0]
        assert len(result.history) == result.rounds

    def test_no_round_is_rejected(self):
        with pytest.raises(SolverError):
            Script([]).run([matrix(1.0)], rounds=0)


class TestIncumbent:
    def test_a_tie_keeps_the_first_incumbent(self):
        first, second = oracle(2.0, matrix(2.0)), oracle(2.0, matrix(3.0))
        script = Script([(1.0, first), (1.5, second)])
        result = script.run([matrix(1.0)], rounds=2)
        assert result.best == 1
        assert result.objective == 1.0
        assert result.oracle is first

    def test_a_lower_ratio_replaces_the_incumbent(self):
        first, second = oracle(2.0, matrix(2.0)), oracle(1.5, matrix(3.0))
        script = Script([(1.0, first), (1.2, second)])
        result = script.run([matrix(1.0)], rounds=2)
        assert result.best == 2
        assert result.objective == 1.2
        assert result.oracle is second


class TestCuts:
    def test_empty_cuts_are_skipped_before_normalizing(self):
        script = Script([(1.0, oracle(2.0, DemandMatrix({}), matrix(2.0), DemandMatrix({})))])
        matrices = [matrix(1.0)]
        script.run(matrices, rounds=1)
        assert script.normalized == [matrix(2.0)]
        assert matrices == [matrix(1.0), matrix(2.0)]

    def test_a_cut_at_the_dedupe_tolerance_is_not_new(self):
        # 0.75 - 0.5 == 0.25 exactly: within the tolerance.
        script = Script([(1.0, oracle(2.0, matrix(0.75)))])
        matrices = [matrix(0.5)]
        result = script.run(matrices, dedupe=0.25)
        assert result.stop == "cycling"
        assert matrices == [matrix(0.5)]

    def test_a_cut_past_the_dedupe_tolerance_is_new(self):
        beyond = math.nextafter(0.75, math.inf)
        script = Script([(1.0, oracle(2.0, matrix(beyond)))])
        matrices = [matrix(0.5)]
        result = script.run(matrices, rounds=1, dedupe=0.25)
        assert result.stop == "round-cap"
        assert matrices == [matrix(0.5), matrix(beyond)]

    def test_cuts_of_one_round_are_deduped_against_each_other(self):
        script = Script([(1.0, oracle(2.0, matrix(2.0), matrix(2.1)))])
        matrices = [matrix(1.0)]
        script.run(matrices, rounds=1)
        assert matrices == [matrix(1.0), matrix(2.0)]


class TestDemandSet:
    def test_t_grows_in_place_and_every_master_call_sees_it(self):
        script = Script([(1.0, oracle(2.0, matrix(2.0))), (1.0, oracle(1.0))])
        matrices = [matrix(1.0)]
        script.run(matrices)
        assert all(seen is matrices for seen in script.seen)
        assert matrices == [matrix(1.0), matrix(2.0)]

    def test_cuts_join_t_normalized(self):
        script = Script([(1.0, oracle(2.0, matrix(3.0)))])
        script.normalize = lambda cut: cut.scaled(0.5)
        matrices = [matrix(1.0)]
        script.run(matrices, rounds=1)
        assert matrices == [matrix(1.0), matrix(1.5)]
