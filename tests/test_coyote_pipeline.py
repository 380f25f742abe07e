"""Integration tests: the full COYOTE pipeline (Fig. 5)."""

import pytest

from repro.config import SolverConfig
from repro.core.coyote import Coyote
from repro.core.evaluate import (
    evaluate_schemes,
    performance_ratio,
    project_ecmp_into_dags,
)
from repro.demands.gravity import gravity_matrix
from repro.demands.uncertainty import margin_box, oblivious_set
from repro.exceptions import SolverError
from repro.fibbing.controller import FibbingController
from repro.lp.worst_case import WorstCaseOracle
from repro.topologies.generators import ring_network

FAST = SolverConfig(
    max_adversarial_rounds=3,
    max_inner_iterations=15,
    smoothing_temperatures=(8.0, 64.0),
)


class TestPipeline:
    def test_run_produces_valid_routing(self, abilene):
        base = gravity_matrix(abilene)
        result = Coyote(abilene, margin_box(base, 2.0), config=FAST).run()
        result.routing.validate()
        assert set(result.dags) == set(abilene.nodes())
        assert result.oracle.ratio > 0

    @pytest.mark.parametrize("cone", ["margin", "oblivious"])
    @pytest.mark.parametrize("topology", ["running_example", "ring", "abilene"])
    def test_never_worse_than_ecmp(self, request, topology, cone):
        """The paper's guarantee, certified: ECMP never beats COYOTE.

        On each small topology and cone the certified ratio is at least
        1, at most the ECMP projection's on the run's own oracle (the
        fallback guarantee), and at least the finite-set objective of
        the returned routing.
        """
        network = ring_network(6) if topology == "ring" else request.getfixturevalue(topology)
        if cone == "margin":
            uncertainty = margin_box(gravity_matrix(network), 2.0)
        else:
            uncertainty = oblivious_set(network.nodes())
        result = Coyote(network, uncertainty, config=FAST).run()
        ratio = result.oracle.ratio
        assert ratio >= 1 - 1e-6
        projection = project_ecmp_into_dags(result.ecmp, result.dags)
        assert ratio <= result.robust.evaluator.evaluate(projection).ratio
        assert result.robust.objective <= ratio * (1 + 1e-6)
        oracle = WorstCaseOracle(network, uncertainty, dags=result.dags, config=FAST)
        assert ratio <= oracle.evaluate(result.ecmp).ratio + 1e-6

    def test_augmented_dags_contain_sp_dags(self, abilene):
        base = gravity_matrix(abilene)
        result = Coyote(abilene, margin_box(base, 2.0), config=FAST).run()
        for t, dag in result.dags.items():
            assert dag.contains_dag(result.ecmp.dags[t])

    def test_default_uncertainty_is_oblivious(self, nsf):
        pipeline = Coyote(nsf, config=FAST)
        assert pipeline.uncertainty.oblivious

    def test_unknown_heuristic_rejected(self, abilene):
        with pytest.raises(SolverError, match="unknown DAG heuristic"):
            Coyote(abilene, dag_heuristic="quantum")

    def test_local_search_heuristic_runs(self, nsf):
        base = gravity_matrix(nsf)
        pipeline = Coyote(
            nsf, margin_box(base, 1.5), dag_heuristic="local_search", config=FAST
        )
        weights = pipeline.compute_weights()
        assert set(weights) == set(nsf.edges())
        assert all(w >= 1 for w in weights.values())

    def test_routing_compiles_to_lies(self, abilene):
        """End-to-end: optimize, compile to OSPF lies, verify FIBs."""
        base = gravity_matrix(abilene)
        result = Coyote(abilene, margin_box(base, 2.0), config=FAST).run()
        controller = FibbingController(abilene, result.weights)
        report = controller.install(result.routing.renormalized(floor=0.02), budget=10)
        assert not report.dag_mismatches
        assert report.max_ratio_error < 1e-9


class TestEvaluateHelpers:
    def test_performance_ratio_wrapper(self, abilene):
        base = gravity_matrix(abilene)
        result = Coyote(abilene, margin_box(base, 2.0), config=FAST).run()
        outcome = performance_ratio(
            abilene, result.dags, result.routing, margin_box(base, 2.0), FAST
        )
        assert outcome.ratio == pytest.approx(result.oracle.ratio, rel=1e-6)

    def test_evaluate_schemes_ordering(self, abilene):
        base = gravity_matrix(abilene)
        result = Coyote(abilene, margin_box(base, 2.0), config=FAST).run()
        evaluations = evaluate_schemes(
            abilene,
            result.dags,
            [result.ecmp, result.routing],
            margin_box(base, 2.0),
            FAST,
        )
        names = [e.scheme for e in evaluations]
        assert names == ["ECMP", "COYOTE"]
        by_name = {e.scheme: e.ratio for e in evaluations}
        assert by_name["COYOTE"] <= by_name["ECMP"] + 1e-6

    def test_projection_matches_ecmp_loads(self, abilene):
        from repro.core.dag_builder import reverse_capacity_dags
        from repro.ecmp.routing import ecmp_routing

        dags, weights = reverse_capacity_dags(abilene)
        ecmp = ecmp_routing(abilene, weights)
        projection = project_ecmp_into_dags(ecmp, dags)
        dm = gravity_matrix(abilene)
        ecmp_loads = ecmp.link_loads(dm)
        proj_loads = projection.link_loads(dm)
        for edge, load in ecmp_loads.items():
            assert proj_loads.get(edge, 0.0) == pytest.approx(load, abs=1e-9)
