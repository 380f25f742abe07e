"""The worst-case oracle's threaded per-edge sweep.

Per-edge solves are isolated, so the number of threads that share a
sweep must never change an :class:`OracleResult`.  These tests pin that
bit for bit, and cover the process-level plumbing around the helper
threads: fork safety, the serial path on one usable core and the sweep
runner's per-worker thread budget.
"""

import os
import threading

import pytest

from repro.config import SolverConfig
from repro.core.dag_builder import build_dags
from repro.demands.bimodal import bimodal_matrix
from repro.demands.uncertainty import margin_box, oblivious_set
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import inverse_capacity_weights
from repro.exceptions import SolverError
from repro.experiments.common import SCHEME_COLUMNS
from repro.lp import backend as lp_backend
from repro.lp.worst_case import (
    CUTS_PER_ROUND,
    OracleResult,
    WorstCaseOracle,
    evaluate_reference,
)
from repro.runner.executor import run_sweep
from repro.runner.faults import FailurePolicy
from repro.runner.spec import SweepCell, SweepSpec
from repro.topologies.generators import running_example_network
from repro.topologies.zoo import load_topology

THREAD_COUNTS = (1, 2, 4)


@pytest.fixture(autouse=True)
def default_lp_threads():
    yield
    lp_backend.set_lp_threads(None)


def _setup(topology):
    network = load_topology(topology)
    weights = inverse_capacity_weights(network)
    dags = build_dags(network, weights, augment=True)
    return network, dags, ecmp_routing(network, weights), bimodal_matrix(network, 7)


def _abilene_margin():
    network, dags, routing, base = _setup("abilene")
    return WorstCaseOracle(network, margin_box(base, 2.0), dags=dags), routing


def _nsf_network_witness():
    network, _dags, routing, base = _setup("nsf")
    return WorstCaseOracle(network, margin_box(base, 2.0), dags=None), routing


def _abilene_oblivious():
    network, dags, routing, _base = _setup("abilene")
    return WorstCaseOracle(network, oblivious_set(network.nodes()), dags=dags), routing


def _running_example_oblivious():
    """Ten loaded edges: fewer than the stress test's thread count."""
    network = running_example_network()
    weights = inverse_capacity_weights(network)
    dags = build_dags(network, weights, augment=True)
    oblivious = oblivious_set(network.nodes())
    return WorstCaseOracle(network, oblivious, dags=dags), ecmp_routing(network, weights)


WITNESSES = {
    "abilene-margin-dags": _abilene_margin,
    "nsf-margin-network": _nsf_network_witness,
    "abilene-oblivious": _abilene_oblivious,
}


def snapshot(result: OracleResult) -> tuple:
    """Every field of a result, in a form ``==`` compares bit for bit."""
    return (
        result.ratio,
        result.edge,
        dict(result.demand.items()) if result.demand is not None else None,
        result.per_edge,
        [dict(cut.items()) for cut in result.cuts],
    )


@pytest.mark.parametrize("witness", sorted(WITNESSES))
def test_thread_count_cannot_change_results(witness):
    # A fresh oracle per thread count, so each sweep solves (and prunes)
    # on its own threads; the serial reference solves every edge.
    reference, routing = WITNESSES[witness]()
    full = evaluate_reference(reference, routing)
    snapshots = {}
    for threads in THREAD_COUNTS:
        oracle, _routing = WITNESSES[witness]()
        lp_backend.set_lp_threads(threads)
        snapshots[threads] = snapshot(oracle.evaluate(routing))
    findings = sorted(full.per_edge.values(), reverse=True)
    assert len(snapshots[1][3]) >= CUTS_PER_ROUND
    floor = findings[CUTS_PER_ROUND - 1]
    assert snapshots[1][3] == {edge: u for edge, u in full.per_edge.items() if u >= floor}
    assert snapshots[1][:3] == snapshot(full)[:3] and snapshots[1][4] == snapshot(full)[4]
    for threads in THREAD_COUNTS[1:]:
        assert snapshots[threads] == snapshots[1], f"{threads} threads differ"


def test_helper_instances_are_kept_across_sweeps():
    oracle, routing = _abilene_margin()
    lp_backend.set_lp_threads(4)
    oracle.evaluate(routing)
    helpers = list(oracle._helper_lps)
    assert len(helpers) == 3
    oracle.evaluate(routing)
    assert oracle._helper_lps == helpers


def test_oracles_sweep_at_once():
    # The running example loads 10 edges, under the 12 threads the
    # others split into, so the callers sweep in different share counts.
    jobs = {name: WITNESSES[name]() for name in ("abilene-margin-dags", "nsf-margin-network")}
    jobs["running-example-oblivious"] = _running_example_oblivious()
    lp_backend.set_lp_threads(1)
    expected = {name: snapshot(o.evaluate(r)) for name, (o, r) in jobs.items()}
    lp_backend.set_lp_threads(12)
    got: dict[str, list[tuple]] = {name: [] for name in jobs}
    errors: list[BaseException] = []

    def sweep(name):
        oracle, routing = jobs[name]
        try:
            for _ in range(3):
                got[name].append(snapshot(oracle.evaluate(routing)))
        except BaseException as error:  # surfaced by the assertion below
            errors.append(error)

    callers = [threading.Thread(target=sweep, args=(name,)) for name in jobs]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=120)
    assert not any(caller.is_alive() for caller in callers), "a sweep hung"
    assert not errors, errors
    for name in jobs:
        assert got[name] == [expected[name]] * 3, name


def test_a_helper_share_error_reaches_the_caller(monkeypatch):
    oracle, routing = _abilene_margin()
    solve = oracle._solve
    caller = threading.current_thread()

    def failing_off_the_caller(objective, reusable):
        if threading.current_thread() is not caller:
            raise SolverError("helper share failed")
        return solve(objective, reusable)

    monkeypatch.setattr(oracle, "_solve", failing_off_the_caller)
    lp_backend.set_lp_threads(2)
    with pytest.raises(SolverError, match="helper share failed"):
        oracle.evaluate(routing)


def test_default_uses_every_usable_core():
    lp_backend.set_lp_threads(None)
    assert lp_backend.lp_threads() == lp_backend.usable_cores()
    oracle, routing = _abilene_margin()
    result = oracle.evaluate(routing)
    shares = min(lp_backend.usable_cores(), len(result.per_edge))
    assert len(oracle._helper_lps) == shares - 1


def test_one_usable_core_runs_serially(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
    lp_backend.set_lp_threads(None)
    assert lp_backend.lp_threads() == 1
    oracle, routing = _abilene_margin()
    serial = snapshot(oracle.evaluate(routing))
    assert oracle._helper_lps == []
    lp_backend.set_lp_threads(2)
    assert snapshot(oracle.evaluate(routing)) == serial


def _cell(margin: float) -> SweepCell:
    return SweepCell(
        experiment="test", topology="abilene", demand_model="gravity",
        margin=margin, seed=7, solver=SolverConfig(),
    )


def _report_lp_threads(cell: SweepCell) -> dict[str, float]:
    """Stub solver whose row is the worker's LP thread count."""
    return {scheme: float(lp_backend.lp_threads()) for scheme in SCHEME_COLUMNS}


def test_sweep_workers_split_the_thread_budget():
    cells = tuple(_cell(margin) for margin in (1.0, 2.0, 3.0))
    spec = SweepSpec(experiment="test", title="lp threads", cells=cells)
    lp_backend.set_lp_threads(6)
    table = run_sweep(spec, jobs=2, solve=_report_lp_threads).table()
    assert table.column(SCHEME_COLUMNS[0]) == [3.0, 3.0, 3.0]


def _threaded_ratio(margin: float) -> float:
    network, dags, routing, base = _setup("abilene")
    oracle = WorstCaseOracle(network, margin_box(base, margin), dags=dags)
    ratio = oracle.evaluate(routing).ratio
    assert len(oracle._helper_lps) == lp_backend.lp_threads() - 1 > 0
    return ratio


def _solve_threaded(cell: SweepCell) -> dict[str, float]:
    return {scheme: _threaded_ratio(cell.margin) for scheme in SCHEME_COLUMNS}


def test_forked_sweep_workers_after_a_threaded_sweep():
    # Forked workers start after threaded sweeps in their parent and
    # sweep on threads themselves.  A worker that hung would be killed
    # at the cell timeout and, with one attempt, abort the sweep.
    lp_backend.set_lp_threads(4)
    margins = (1.5, 2.0)
    expected = [_threaded_ratio(margin) for margin in margins]
    spec = SweepSpec(experiment="test", title="fork", cells=tuple(map(_cell, margins)))
    policy = FailurePolicy(max_attempts=1, cell_timeout=60)
    table = run_sweep(spec, jobs=2, solve=_solve_threaded, failures=policy).table()
    assert table.column(SCHEME_COLUMNS[0]) == expected
