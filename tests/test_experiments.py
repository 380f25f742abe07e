"""Tests for the experiment drivers (fast configurations only)."""

import math

import pytest

from repro.config import ExperimentConfig, SolverConfig
from repro.exceptions import ExperimentError
from repro.experiments.fig12_prototype import (
    coyote_forwarding,
    fig12,
    run_scheme,
    te1_forwarding,
    te2_forwarding,
)
from repro.experiments.hardness import (
    direct_link_routing,
    lemma2_routing,
    theorem1_table,
    theorem4_table,
)
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from repro.experiments.running_example import (
    GOLDEN_RATIO_UTILIZATION,
    running_example_table,
)

TINY = ExperimentConfig(
    margins=(1.0, 2.0),
    solver=SolverConfig(
        max_adversarial_rounds=2,
        max_inner_iterations=10,
        smoothing_temperatures=(8.0, 64.0),
    ),
)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = set(experiment_ids())
        expected = {
            "running-example", "thm1", "thm4",
            "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            "table1",
        }
        assert expected == ids

    def test_unknown_experiment_raises(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("fig99")

    def test_descriptions_present(self):
        assert all(e.description for e in EXPERIMENTS.values())


class TestRunningExample:
    def test_table_values(self):
        table = running_example_table(TINY)
        measured = dict(zip(table.column("scheme"), table.column("measured")))
        assert measured["ECMP (Fig. 1b)"] == pytest.approx(1.5, abs=1e-6)
        assert measured["COYOTE (Fig. 1c)"] == pytest.approx(4 / 3, abs=1e-6)
        assert measured["COYOTE (optimized)"] == pytest.approx(
            GOLDEN_RATIO_UTILIZATION, abs=0.01
        )

    def test_golden_constant(self):
        assert GOLDEN_RATIO_UTILIZATION == pytest.approx(math.sqrt(5) - 1)


class TestHardness:
    def test_theorem1_balanced_is_four_thirds(self):
        table = theorem1_table(TINY, weights=(3, 1, 2))
        ratios = table.column("ratio")
        assert ratios[0] == pytest.approx(4 / 3, abs=1e-6)
        assert ratios[1] > 4 / 3 + 0.1  # unbalanced is strictly worse

    def test_theorem1_rejects_odd_sum(self):
        with pytest.raises(ExperimentError, match="odd sum"):
            theorem1_table(TINY, weights=(1, 2))

    def test_lemma2_routing_valid(self):
        routing = lemma2_routing((3, 1, 2), {0})
        routing.validate()

    def test_theorem4_scaling(self):
        table = theorem4_table(TINY, lengths=(3, 5))
        for n, optimum, ratio, bound in table.rows:
            assert optimum == pytest.approx(1.0, abs=1e-6)
            assert ratio == pytest.approx(float(n), rel=1e-6)

    def test_direct_link_routing_valid(self):
        direct_link_routing(4).validate()


class TestFig12:
    def test_coyote_zero_loss(self):
        rates = run_scheme(coyote_forwarding())
        assert max(rates) < 0.02

    def test_te1_drops_heavily_in_phase1(self):
        rates = run_scheme(te1_forwarding())
        assert rates[0] == pytest.approx(0.5, abs=0.05)
        assert rates[1] < 0.02

    def test_te2_drops_quarter_in_phase2(self):
        rates = run_scheme(te2_forwarding())
        assert rates[1] == pytest.approx(0.25, abs=0.05)
        assert rates[2] < 0.02

    def test_fig12_table_shape(self):
        table = fig12()
        assert table.column("scheme") == ["TE1", "TE2", "COYOTE"]
        worst = dict(zip(table.column("scheme"), table.column("worst")))
        assert worst["COYOTE"] < 0.02
        assert worst["TE1"] > 0.25 and worst["TE2"] > 0.2

    def test_coyote_forwarding_comes_from_ospf(self):
        scheme = coyote_forwarding()
        # The lie splits s1's t1 traffic between t and s2.
        weights = dict(scheme.tables["t1"].next_hop_weights("s1"))
        assert weights == {"t": 0.5, "s2": 0.5}
        # ...but s1 forwards t2 traffic straight to t.
        weights_t2 = dict(scheme.tables["t2"].next_hop_weights("s1"))
        assert weights_t2 == {"t": 1.0}


@pytest.mark.slow
class TestSweeps:
    """Reduced-grid smoke runs of the heavy drivers (marked slow)."""

    def test_margin_sweep_tiny(self):
        from repro.experiments.margin_sweep import margin_sweep_experiment

        table = margin_sweep_experiment("nsf", "gravity", TINY)
        assert len(table) == len(TINY.margins)
        # COYOTE-pk never loses to ECMP.
        for row in table.rows:
            margin, ecmp, base, obl, pk = row
            assert pk <= ecmp + 1e-6
        # With no uncertainty, Base and COYOTE-pk are optimal.
        first = table.rows[0]
        assert first[2] == pytest.approx(1.0, abs=1e-6)
        assert first[4] == pytest.approx(1.0, abs=0.02)

    def test_fig10_budget_ordering(self):
        from repro.experiments.fig10_approximation import fig10

        table = fig10(TINY, topology="nsf", budgets=(3, 10))
        for row in table.rows:
            margin, ecmp, ideal, nh3, nh10 = row
            assert ideal <= min(nh3, nh10) + 0.05  # rounding approaches the ideal
            assert nh10 <= nh3 + 0.15  # a bigger budget tracks it closer
            assert nh10 <= ecmp + 0.10  # 10 NHs is at least ECMP-grade

    def test_fig11_stretch_bounds(self):
        from repro.experiments.fig11_stretch import fig11

        table = fig11(TINY, topologies=("nsf",), margin=2.0)
        # The paper keeps stretch near 1.1; the bounds only catch
        # pathological configurations.
        for _net, obl, pk in table.rows:
            assert 0.8 <= obl <= 1.8
            assert 0.8 <= pk <= 1.8
