"""Shared scaffolding for the Section VI experiments.

The evaluation compares four destination-based schemes, every one
normalized by the demands-aware optimum within the same augmented DAGs:

* **ECMP** — traditional TE: equal splits over shortest paths;
* **Base** — the optimal within-DAG routing for the *base* demand
  matrix, then exposed to the whole uncertainty set;
* **COYOTE-oblivious** — splitting optimized with no demand knowledge;
* **COYOTE-partial** — splitting optimized against the margin cone.

:class:`ExperimentSetup` computes everything margin-independent once
(DAGs, ECMP, Base, the oblivious routing); per-margin evaluation then
runs the COYOTE-pk solve and scores all schemes on that solve's oracle,
so the scores reuse the solve's per-edge LPs.

This module also registers the ``"margin"`` cell kind — the
(topology, demand model, margin) unit behind Figs. 6-8 and Table I —
and exposes :func:`shared_setup`, the per-process LRU-memoized setup
that all setup-sharing kinds (margin, Fig. 10's approximation, Fig.
11's stretch) build their cells on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.config import SolverConfig
from repro.core.dag_builder import build_dags
from repro.core.evaluate import project_ecmp_into_dags
from repro.core.robust import RobustResult, optimize_robust_splitting
from repro.demands.gravity import gravity_matrix
from repro.demands.bimodal import bimodal_matrix
from repro.demands.matrix import DemandMatrix
from repro.demands.uncertainty import margin_box, oblivious_set
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import inverse_capacity_weights
from repro.exceptions import ExperimentError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.lp.dag_flow import optimal_dag_routing
from repro.routing.splitting import Routing
from repro.runner.memo import LruMemo
from repro.runner.spec import CellKind, SweepCell, register_cell_kind
from repro.runner.timing import phase
from repro.topologies.zoo import load_topology

SCHEME_COLUMNS = ("ECMP", "Base", "COYOTE-obl", "COYOTE-pk")

#: Per-process cap on memoized setups; grids iterate margins within one
#: topology, so a handful of live setups covers realistic schedules.
SETUP_MEMO_LIMIT = 4

_SETUP_MEMO = LruMemo(limit=SETUP_MEMO_LIMIT)


def base_matrix_for(network: Network, demand_model: str, seed: int) -> DemandMatrix:
    """The base demand matrix for a model name ("gravity" or "bimodal")."""
    if demand_model == "gravity":
        return gravity_matrix(network)
    if demand_model == "bimodal":
        return bimodal_matrix(network, seed)
    raise ExperimentError(f"unknown demand model {demand_model!r}")


@dataclass
class ExperimentSetup:
    """Margin-independent artifacts for one (topology, base-matrix) pair."""

    network: Network
    base: DemandMatrix
    weights: dict[Edge, float]
    dags: dict[Node, Dag]
    ecmp: Routing
    ecmp_projection: Routing
    base_routing: Routing
    coyote_oblivious: Routing
    config: SolverConfig
    optimizer: str


def prepare_setup(
    network: Network,
    base: DemandMatrix,
    config: SolverConfig,
    weights: Mapping[Edge, float] | None = None,
    optimizer: str = "softmax",
) -> ExperimentSetup:
    """Build DAGs and the margin-independent schemes.

    Args:
        network: the topology under evaluation.
        base: the base demand matrix (gravity or bimodal).
        config: solver knobs (iteration caps drive runtime).
        weights: link weights; default is the reverse-capacity heuristic.
            The local-search experiments pass Algorithm 1's weights here.
        optimizer: inner splitting optimizer ("softmax" or "gp").
    """
    weight_map = dict(weights) if weights is not None else inverse_capacity_weights(network)
    dags = build_dags(network, weight_map, augment=True)
    ecmp = ecmp_routing(network, weight_map)
    projection = project_ecmp_into_dags(ecmp, dags)
    base_routing = optimal_dag_routing(network, dags, base, name="Base")

    # Seeding the oblivious optimization with the base matrix gives the
    # cutting-plane loop realistic all-pairs pressure from round one; the
    # resulting routing is still oblivious (the seed only enlarges T).
    oblivious = optimize_robust_splitting(
        network,
        dags,
        oblivious_set(network.nodes()),
        config=config,
        optimizer=optimizer,
        initial_matrices=[base],
        extra_starts=[projection.ratios, base_routing.ratios],
        fallbacks=[projection],
        name="COYOTE-obl",
    ).routing

    return ExperimentSetup(
        network=network,
        base=base,
        weights=weight_map,
        dags=dags,
        ecmp=ecmp,
        ecmp_projection=projection,
        base_routing=base_routing,
        coyote_oblivious=oblivious,
        config=config,
        optimizer=optimizer,
    )


def coyote_partial_for_margin(setup: ExperimentSetup, margin: float) -> RobustResult:
    """COYOTE optimized against the margin cone around the base matrix.

    Recorded as the "solve" phase when a benchmark is timing the cell:
    this robust optimization is the margin-dependent hot path every
    setup-sharing kind pays per cell.  The result's ``evaluator`` is the
    margin's worst-case oracle, its memo filled by the solve.
    """
    uncertainty = margin_box(setup.base, margin)
    with phase("solve"):
        return optimize_robust_splitting(
            setup.network,
            setup.dags,
            uncertainty,
            config=setup.config,
            optimizer=setup.optimizer,
            initial_matrices=[setup.base],
            extra_starts=[setup.ecmp_projection.ratios, setup.base_routing.ratios],
            fallbacks=[setup.ecmp_projection],
            name="COYOTE-pk",
        )


def evaluate_margin(setup: ExperimentSetup, margin: float) -> dict[str, float]:
    """All four schemes' worst-case ratios for one uncertainty margin.

    Each is scored on the margin solve's own oracle with
    :meth:`~repro.lp.worst_case.WorstCaseOracle.ratio`, which solves only
    the per-edge LPs its memo's bounds cannot rule out.  The objective
    coefficients come from the vectorized kernel (see
    :mod:`repro.kernel`); semantics changes on that path require a
    ``CACHE_VERSION`` bump in :mod:`repro.runner.spec`.
    """
    partial = coyote_partial_for_margin(setup, margin)
    oracle = partial.evaluator
    with phase("evaluate"):
        return {
            "ECMP": oracle.ratio(setup.ecmp),
            "Base": oracle.ratio(setup.base_routing),
            "COYOTE-obl": oracle.ratio(setup.coyote_oblivious),
            "COYOTE-pk": oracle.ratio(partial.routing),
        }


def shared_setup(cell: SweepCell) -> ExperimentSetup:
    """The margin-independent setup for a cell, LRU-memoized per process.

    Keyed by :meth:`~repro.runner.spec.SweepCell.setup_key`, so cells of
    *different* kinds over the same (topology, demand model, seed,
    solver, optimizer) — e.g. a Table I margin cell and a Fig. 11
    stretch cell — share one :class:`ExperimentSetup`.
    """

    def build() -> ExperimentSetup:
        # Timed as "setup" only when actually built: a memo hit is free,
        # and the benchmark timings should say so.
        with phase("setup"):
            network = load_topology(cell.topology)
            base = base_matrix_for(network, cell.demand_model, cell.seed)
            return prepare_setup(network, base, cell.solver, optimizer=cell.optimizer)

    return _SETUP_MEMO.get_or_create(cell.setup_key(), build)


def solve_margin_cell(cell: SweepCell) -> dict[str, float]:
    """Solve one margin-grid cell: all four schemes at the cell's margin."""
    return evaluate_margin(shared_setup(cell), cell.margin)


MARGIN_KIND = register_cell_kind(
    # One margin cell = one full robust optimization (cutting-plane loop
    # over LP oracles); full-config solves run minutes, never hours.
    CellKind(name="margin", solve=solve_margin_cell, columns=SCHEME_COLUMNS, timeout=3600.0)
)
