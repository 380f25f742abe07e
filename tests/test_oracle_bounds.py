"""The worst-case oracle's memo bounds are safe past ``BOUND_MARGIN``.

The pruned sweep skips an edge only when both of its bounds, times
``1 + BOUND_MARGIN``, fall below a threshold, so every bound must hold
against a solve of the same objective up to that margin.  These tests
score a sequence of routings on a fresh oracle and, before each one,
take both bounds of every edge the memo lacks; then they solve every
edge and check ``upper * (1 + m) >= solved >= lower / (1 + m)``.  The
routings include one with near-zero splitting fractions, as the softmax
optimizer's are, where the uncapped scaling bound explodes.
"""

import functools

import numpy as np
import pytest

from repro.core.dag_builder import build_dags
from repro.core.evaluate import project_ecmp_into_dags
from repro.demands.bimodal import bimodal_matrix
from repro.demands.gravity import gravity_matrix
from repro.demands.uncertainty import margin_box, oblivious_set
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import inverse_capacity_weights
from repro.lp import backend as lp_backend
from repro.lp.dag_flow import optimal_dag_routing
from repro.lp.worst_case import BOUND_MARGIN, WorstCaseOracle, evaluate_reference
from repro.routing.splitting import Routing
from repro.topologies.generators import ring_network, running_example_network
from repro.topologies.zoo import load_topology

TOPOLOGIES = ("running-example", "ring-6", "abilene", "nsf")


@pytest.fixture(autouse=True)
def default_lp_threads():
    yield
    lp_backend.set_lp_threads(None)


def skewed_routing(dags, seed: int) -> Routing:
    """Random splits that put fractions down to ~1e-6 on most next hops."""
    rng = np.random.default_rng(seed)
    ratios = {}
    for t, dag in dags.items():
        ratios[t] = {}
        for node in dag.nodes():
            heads = list(dag.out_neighbors(node))
            if not heads:
                continue
            weights = np.exp(-14.0 * rng.random(len(heads)))
            for head, weight in zip(heads, weights / weights.sum()):
                ratios[t][(node, head)] = float(weight)
    return Routing(dags, ratios, name="skewed")


@functools.cache
def _instance(topology: str) -> dict:
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
        "routings": [
            ecmp,
            project_ecmp_into_dags(ecmp, dags),
            optimal_dag_routing(network, dags, base, name="Base"),
            skewed_routing(dags, 1),
            optimal_dag_routing(network, dags, gravity_matrix(network), name="gravity"),
            skewed_routing(dags, 2),
        ],
        "cones": {"margin": margin_box(base, 2.0), "oblivious": oblivious_set(network.nodes())},
    }


def bound_errors(oracle: WorstCaseOracle, routings) -> tuple[float, float, int]:
    """The worst relative undercut of each bound, and how many were checked.

    Before each routing, both bounds of every unsolved edge come from the
    memo as the previous routings' sweeps left it; then every edge is
    solved.  An undercut is ``solved / upper - 1`` or ``lower / solved - 1``.
    """
    worst_upper = worst_lower = 0.0
    checked = 0
    for routing in routings:
        loaded = oracle._loaded(routing.load_coefficients(oracle.demand_pairs))
        pending = oracle._pending(loaded)
        if not pending:
            continue
        dense = oracle._rows(pending)
        lower = oracle._lower_bounds(dense)
        upper = [oracle._upper_bound(edge, row) for (edge, _o), row in zip(pending.values(), dense)]
        # The pruned sweep fills part of the memo, on the set thread
        # count; the reference then solves every edge it skipped.
        oracle.evaluate(routing)
        evaluate_reference(oracle, routing)
        for key, low, high in zip(pending, lower, upper):
            solved = oracle._memo[key][0]
            assert high * (1.0 + BOUND_MARGIN) >= solved >= low / (1.0 + BOUND_MARGIN), (
                routing.name, high, solved, low,
            )
            if solved > 0.0:
                worst_upper = max(worst_upper, solved / high - 1.0)
                worst_lower = max(worst_lower, low / solved - 1.0)
            checked += 1
    return worst_upper, worst_lower, checked


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("witness", ("dags", "network"))
@pytest.mark.parametrize("cone", ("margin", "oblivious"))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bounds_hold_against_every_solve(topology, cone, witness, threads):
    lp_backend.set_lp_threads(threads)
    instance = _instance(topology)
    oracle = WorstCaseOracle(
        instance["network"],
        instance["cones"][cone],
        dags=instance["dags"] if witness == "dags" else None,
    )
    worst_upper, worst_lower, checked = bound_errors(oracle, instance["routings"])
    assert checked > 0
    # The margin is at least 100 times the worst undercut it has to absorb.
    assert max(worst_upper, worst_lower) * 100 <= BOUND_MARGIN


def test_caps_bound_every_worst_case_demand():
    """``M_p >= d_p`` at every memoized worst-case demand (to the margin)."""
    instance = _instance("abilene")
    for cone in ("margin", "oblivious"):
        oracle = WorstCaseOracle(instance["network"], instance["cones"][cone], instance["dags"])
        for routing in instance["routings"][:3]:
            evaluate_reference(oracle, routing)
        assert (oracle._demands.array <= oracle._caps * (1.0 + BOUND_MARGIN)).all(), cone
        assert np.isfinite(oracle._caps).all()


def test_capped_bound_is_no_looser_than_the_scaling_bound():
    """``alpha = max_p c_p / s_p`` is one point of the minimized bound."""
    instance = _instance("abilene")
    oracle = WorstCaseOracle(instance["network"], instance["cones"]["margin"], instance["dags"])
    ecmp, _projection, base, skewed = instance["routings"][:4]
    evaluate_reference(oracle, base)
    evaluate_reference(oracle, skewed)
    loaded = oracle._loaded(ecmp.load_coefficients(oracle.demand_pairs))
    tighter = 0
    for edge, objective, _key in loaded:
        row = oracle._row(objective)
        sources = oracle._upper[edge].array
        support = np.flatnonzero(row)
        with np.errstate(divide="ignore"):
            scaling = float((row[support] / sources[:, support]).max(axis=1).min())
        capped = oracle._upper_bound(edge, row)
        assert capped <= scaling
        tighter += capped < scaling
    assert tighter > len(loaded) // 2
