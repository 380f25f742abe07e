"""Fig. 9: the local-search DAG heuristic on Abilene (bimodal demands).

For each uncertainty margin the driver runs Algorithm 1 to find link
weights whose ECMP is robust to the margin's worst-case demands, then
compares plain ECMP on those weights against COYOTE's optimized
splitting within the same augmented DAGs.  The paper's headline: ECMP is
on average almost 80% further from the demands-aware optimum than
COYOTE.

Every margin's search + comparison is fully independent of the others,
so the experiment decomposes into one sweep cell per margin (the
``"fig9-local-search"`` kind) and rides the parallel runner; the
mean-gap summary is reassembled from the completed report by the spec's
footer, excluding margins whose gap is undefined (COYOTE ratio 0).
"""

from __future__ import annotations

import math

from repro.config import ExperimentConfig
from repro.core.dag_builder import build_dags
from repro.core.evaluate import project_ecmp_into_dags
from repro.core.local_search import local_search_weights
from repro.core.robust import optimize_robust_splitting
from repro.demands.uncertainty import margin_box
from repro.ecmp.routing import ecmp_routing
from repro.experiments.common import base_matrix_for
from repro.runner.executor import run_sweep
from repro.runner.spec import CellKind, SweepCell, SweepSpec, grid_cells, register_cell_kind
from repro.runner.timing import phase
from repro.topologies.zoo import load_topology
from repro.utils.tables import Table

FIG9_COLUMNS = ("ECMP", "COYOTE", "ECMP/COYOTE")


def solve_fig9_cell(cell: SweepCell) -> dict[str, float]:
    """One margin's local search + ECMP-vs-COYOTE comparison.

    Algorithm 1 runs on a scaled-down config (coarse search); the final
    oracle evaluation and COYOTE optimization use the cell's full solver
    config, mirroring the historical serial driver exactly.
    """
    with phase("setup"):
        network = load_topology(cell.topology)
        base = base_matrix_for(network, cell.demand_model, cell.seed)
        uncertainty = margin_box(base, cell.margin)
    with phase("solve"):
        search = local_search_weights(network, uncertainty, config=cell.solver.scaled_down())
        weights = {e: float(w) for e, w in search.weights.items()}
        dags = build_dags(network, weights, augment=True)
        ecmp = ecmp_routing(network, weights)
        projection = project_ecmp_into_dags(ecmp, dags)
        coyote = optimize_robust_splitting(
            network,
            dags,
            uncertainty,
            config=cell.solver,
            initial_matrices=[base, *search.matrices],
            extra_starts=[projection.ratios],
            fallbacks=[projection],
            name="COYOTE",
        )
    # The solve's oracle: the ECMP score reuses the solve's memo (the
    # projection fallback has ECMP's objectives) and its bounds.
    oracle = coyote.evaluator
    with phase("evaluate"):
        ecmp_ratio = oracle.ratio(ecmp)
        coyote_ratio = oracle.ratio(coyote.routing)
    gap = ecmp_ratio / coyote_ratio if coyote_ratio > 0 else float("nan")
    return {"ECMP": ecmp_ratio, "COYOTE": coyote_ratio, "ECMP/COYOTE": gap}


FIG9_KIND = register_cell_kind(
    CellKind(
        name="fig9-local-search", solve=solve_fig9_cell, columns=FIG9_COLUMNS, timeout=3600.0
    )
)


def _mean_gap_footer(report) -> tuple[str, ...]:
    """Summarize the mean ECMP/COYOTE gap, excluding undefined entries.

    A margin whose COYOTE ratio is 0 yields a NaN gap; including it
    would poison the mean into "nan% further from the optimum", so such
    margins are dropped and counted instead.
    """
    gaps = [result.ratios.get("ECMP/COYOTE", float("nan")) for result in report.results]
    finite = [gap for gap in gaps if math.isfinite(gap)]
    if not finite:
        if not gaps:
            return ()
        return (f"all {len(gaps)} ECMP/COYOTE gaps were undefined (COYOTE ratio 0)",)
    mean_excess = 100.0 * (sum(finite) / len(finite) - 1.0)
    note = (
        f"ECMP is on average {mean_excess:.0f}% further from the optimum than "
        f"COYOTE (paper reports ~80% on the full grid)"
    )
    skipped = len(gaps) - len(finite)
    if skipped:
        note += f"; {skipped} margin(s) with an undefined gap excluded from the mean"
    return (note,)


def fig9_spec(
    config: ExperimentConfig | None = None,
    topology: str = "abilene",
    demand_model: str = "bimodal",
) -> SweepSpec:
    """Declare the Fig. 9 grid: one local-search cell per margin."""
    config = config or ExperimentConfig.from_environment()
    cells = grid_cells(
        "fig9",
        [topology],
        demand_model,
        config.margins,
        config.solver,
        config.seed,
        kind=FIG9_KIND.name,
    )
    return SweepSpec(
        experiment="fig9",
        title=f"Fig. 9 — {topology}, local-search heuristic, {demand_model}",
        cells=cells,
        footer=_mean_gap_footer,
    )


def fig9(
    config: ExperimentConfig | None = None,
    topology: str = "abilene",
    demand_model: str = "bimodal",
) -> Table:
    """Regenerate Fig. 9 (local-search heuristic, ECMP vs COYOTE)."""
    return run_sweep(fig9_spec(config, topology, demand_model)).table()
