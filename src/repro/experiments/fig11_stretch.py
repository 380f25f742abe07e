"""Fig. 11: average path stretch of COYOTE relative to ECMP.

COYOTE's augmented DAGs add non-shortest-path links, so traffic can
travel longer routes; the paper shows the expected path length grows by
at most ~10% (average over all pairs, margin 2.5).  Stretch below 1 is
possible (BBNPlanet) because DAGs follow weighted shortest paths while
stretch counts hops.

Each topology's stretch evaluation is independent of every other's, so
the experiment decomposes into one sweep cell per topology (the
``"fig11-stretch"`` kind) — the biggest wall-clock win of the parallel
runner on ``--full``, where 15 topologies' robust optimizations fan out
across workers.  Within one sweep the cells share setups with the
margin-grid kinds through the per-process memo (equal setup keys build
identical :class:`~repro.experiments.common.ExperimentSetup`\\ s).
"""

from __future__ import annotations

from typing import Sequence

from repro.config import ExperimentConfig
from repro.experiments.common import coyote_partial_for_margin, shared_setup
from repro.runner.executor import run_sweep
from repro.runner.spec import CellKind, SweepCell, SweepSpec, register_cell_kind
from repro.runner.timing import phase
from repro.topologies.zoo import STRETCH_TOPOLOGIES
from repro.utils.tables import Table

#: Reduced subset mirrors the figure's mix: hand-coded + synthetic + near-tree.
REDUCED_TOPOLOGIES: tuple[str, ...] = ("abilene", "nsf", "germany", "grnet", "bbnplanet")

FIG11_COLUMNS = ("COYOTE-obl", "COYOTE-pk")


def solve_fig11_cell(cell: SweepCell) -> dict[str, float]:
    """One topology's average stretch for both COYOTE variants."""
    setup = shared_setup(cell)
    partial = coyote_partial_for_margin(setup, cell.margin).routing
    with phase("evaluate"):
        return {
            "COYOTE-obl": setup.coyote_oblivious.average_stretch_against(setup.ecmp),
            "COYOTE-pk": partial.average_stretch_against(setup.ecmp),
        }


FIG11_KIND = register_cell_kind(
    # The stretch cells run the softmax L-BFGS inner optimizer, the
    # slowest solve in the tree (see ROADMAP); give them extra headroom.
    CellKind(
        name="fig11-stretch", solve=solve_fig11_cell, columns=FIG11_COLUMNS, timeout=7200.0
    )
)


def fig11_spec(
    config: ExperimentConfig | None = None,
    topologies: Sequence[str] | None = None,
    margin: float = 2.5,
) -> SweepSpec:
    """Declare the Fig. 11 grid: one stretch cell per topology."""
    config = config or ExperimentConfig.from_environment()
    if topologies is None:
        topologies = STRETCH_TOPOLOGIES if config.full else REDUCED_TOPOLOGIES
    cells = tuple(
        SweepCell(
            experiment="fig11",
            topology=name,
            demand_model="gravity",
            margin=margin,
            seed=config.seed,
            solver=config.solver,
            kind=FIG11_KIND.name,
        )
        for name in topologies
    )
    return SweepSpec(
        experiment="fig11",
        title=f"Fig. 11 — average path stretch vs ECMP (margin {margin:g})",
        cells=cells,
        row_columns=("network",),
        notes=(
            "stretch = expected hop count under COYOTE divided by ECMP's, averaged "
            "over all source-destination pairs; the paper's values stay within ~1.1",
        ),
    )


def fig11(
    config: ExperimentConfig | None = None,
    topologies: Sequence[str] | None = None,
    margin: float = 2.5,
) -> Table:
    """Regenerate Fig. 11 (average stretch at margin 2.5)."""
    return run_sweep(fig11_spec(config, topologies, margin)).table()
