"""Table I: the full margin sweep across the evaluation topologies.

The paper's Table I covers 14 topologies (all but the two near-trees)
with margins 1.0..5.0 in 0.5 steps, gravity base demands.  The reduced
default (used by the benchmark suite) runs a three-topology subset over
margins {1, 2, 3}; pass ``--full`` (or set ``REPRO_FULL=1``) for the
paper grid.

The driver declares the (topology x margin) grid as a
:class:`~repro.runner.spec.SweepSpec`; the sweep runner executes it serially
or across a process pool and reassembles the table in the declared
topology-major order.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import ExperimentConfig
from repro.runner.executor import run_sweep
from repro.runner.spec import SweepSpec, grid_cells
from repro.topologies.zoo import TABLE1_TOPOLOGIES
from repro.utils.tables import Table

#: Subset used when the full grid was not requested (small and fast,
#: one hand-coded US backbone, one hand-coded research net, one synthetic).
REDUCED_TOPOLOGIES: tuple[str, ...] = ("abilene", "nsf", "germany")


def table1_spec(
    config: ExperimentConfig | None = None,
    topologies: Sequence[str] | None = None,
) -> SweepSpec:
    """Declare the Table I grid (gravity base model).

    Args:
        config: margins + solver knobs; ``config.full`` selects the
            paper-scale topology set.
        topologies: topology names; defaults to the full Table I set when
            ``config.full``, else :data:`REDUCED_TOPOLOGIES`.
    """
    config = config or ExperimentConfig.from_environment()
    if topologies is None:
        topologies = TABLE1_TOPOLOGIES if config.full else REDUCED_TOPOLOGIES
    cells = grid_cells(
        "table1",
        list(topologies),
        config.demand_model,
        config.margins,
        config.solver,
        config.seed,
    )
    notes = [f"topologies={list(topologies)}, margins={config.margins}"]
    if not config.full:
        notes.append("reduced grid; set REPRO_FULL=1 for the paper-scale table")
    return SweepSpec(
        experiment="table1",
        title="Table I — COYOTE vs ECMP and Base (gravity)",
        cells=cells,
        row_columns=("network", "margin"),
        notes=tuple(notes),
    )


def table1_experiment(
    config: ExperimentConfig | None = None,
    topologies: Sequence[str] | None = None,
) -> Table:
    """Regenerate Table I (gravity base model), serially."""
    return run_sweep(table1_spec(config, topologies)).table()
