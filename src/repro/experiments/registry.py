"""The experiment registry: one entry per paper table/figure.

Besides the per-experiment entries this module registers the generic
``"driver-table"`` cell kind, which wraps any registered experiment's
driver as a single sweep cell: the cell's params name the experiment and
the (key, value) table columns to extract, and the cell's result is the
selected rows' values.  Single-unit experiments (the running example,
Fig. 12's prototype, the hardness theorems) thereby ride the same
executor, result cache, and timing hooks as the grid experiments — the
benchmark harness builds on exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.config import ExperimentConfig
from repro.exceptions import ExperimentError
from repro.experiments.fig9_local_search import fig9, fig9_spec
from repro.experiments.fig10_approximation import fig10, fig10_spec
from repro.experiments.fig11_stretch import fig11, fig11_spec
from repro.experiments.fig12_prototype import fig12
from repro.experiments.hardness import theorem1_table, theorem4_table
from repro.experiments.margin_sweep import fig6, fig6_spec, fig7, fig7_spec, fig8, fig8_spec
from repro.experiments.running_example import running_example_table
from repro.experiments.table1 import table1_experiment, table1_spec
from repro.runner.spec import (
    CellKind,
    SweepCell,
    SweepSpec,
    freeze_params,
    register_cell_kind,
)
from repro.runner.timing import phase
from repro.utils.tables import Table

Driver = Callable[[ExperimentConfig | None], Table]
GridBuilder = Callable[[ExperimentConfig | None], SweepSpec]


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: id, description, driver, optional grid.

    Experiments whose evaluation decomposes into independent sweep cells
    (a registered :class:`~repro.runner.spec.CellKind` — margin-grid
    rows, Fig. 9's per-margin searches, Fig. 10's budget cells, Fig.
    11's per-topology stretch) also declare a ``grid`` builder; those
    are the ones ``repro sweep`` (and ``repro run``'s ``--jobs``/cache
    flags) can execute through the parallel runner.
    """

    id: str
    description: str
    driver: Driver
    grid: GridBuilder | None = None


EXPERIMENTS: dict[str, Experiment] = {
    exp.id: exp
    for exp in [
        Experiment(
            "running-example",
            "Fig. 1 / Appendix B: ECMP 3/2, Fig-1c 4/3, optimal sqrt(5)-1",
            running_example_table,
        ),
        Experiment(
            "thm1",
            "Theorem 1 (Figs. 2-3): BIPARTITION gadget, balanced ratio 4/3",
            theorem1_table,
        ),
        Experiment(
            "thm4",
            "Theorem 4 (Fig. 4): Omega(|V|) oblivious separation",
            theorem4_table,
        ),
        Experiment("fig6", "Fig. 6: Geant, gravity margin sweep", fig6, grid=fig6_spec),
        Experiment("fig7", "Fig. 7: Digex, gravity margin sweep", fig7, grid=fig7_spec),
        Experiment("fig8", "Fig. 8: AS1755, bimodal margin sweep", fig8, grid=fig8_spec),
        Experiment(
            "fig9", "Fig. 9: Abilene, local-search heuristic", fig9, grid=fig9_spec
        ),
        Experiment(
            "fig10", "Fig. 10: virtual next-hop approximation", fig10, grid=fig10_spec
        ),
        Experiment(
            "fig11", "Fig. 11: average path stretch", fig11, grid=fig11_spec
        ),
        Experiment("fig12", "Fig. 12: prototype packet-drop emulation", fig12),
        Experiment(
            "table1",
            "Table I: full margin sweep across topologies",
            table1_experiment,
            grid=table1_spec,
        ),
    ]
}


def experiment_ids() -> list[str]:
    return list(EXPERIMENTS)


def sweepable_experiment_ids() -> list[str]:
    """Ids of experiments that declare a cell grid (``repro sweep`` targets)."""
    return [exp.id for exp in EXPERIMENTS.values() if exp.grid is not None]


def experiment_spec(experiment_id: str, config: ExperimentConfig | None = None) -> SweepSpec:
    """The declared sweep grid for one experiment (raises for non-grid ids)."""
    experiment = _get_experiment(experiment_id)
    if experiment.grid is None:
        raise ExperimentError(
            f"experiment {experiment_id!r} does not decompose into sweep cells; "
            f"sweepable: {', '.join(sweepable_experiment_ids())}"
        )
    return experiment.grid(config)


def _get_experiment(experiment_id: str) -> Experiment:
    experiment = EXPERIMENTS.get(experiment_id)
    if experiment is None:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(EXPERIMENTS)}"
        )
    return experiment


def run_experiment(experiment_id: str, config: ExperimentConfig | None = None) -> Table:
    """Run one experiment by id (raises ExperimentError for unknown ids)."""
    return _get_experiment(experiment_id).driver(config)


def solve_driver_cell(cell: SweepCell) -> dict[str, float]:
    """Run a whole experiment driver as one sweep cell.

    The cell's params declare which experiment to run and how to project
    its table onto scalar result columns: ``select`` lists values of
    ``key_column`` whose ``value_column`` entries become the cell's
    results.  The driver call is recorded as the "solve" phase (drivers
    don't decompose further, so setup/evaluate stay unattributed).
    """
    params = cell.params_dict()
    config = ExperimentConfig(
        margins=(cell.margin,),
        solver=cell.solver,
        demand_model=cell.demand_model,
        seed=cell.seed,
        full=bool(params.get("full", False)),
    )
    with phase("solve"):
        table = run_experiment(params["driver"], config)
    mapping = dict(zip(table.column(params["key_column"]), table.column(params["value_column"])))
    missing = [key for key in params["select"] if key not in mapping]
    if missing:
        raise ExperimentError(
            f"driver {params['driver']!r} produced no {params['key_column']!r} rows "
            f"{missing!r} (got {sorted(map(str, mapping))!r})"
        )
    return {str(key): float(mapping[key]) for key in params["select"]}


DRIVER_KIND = register_cell_kind(
    CellKind(
        name="driver-table",
        solve=solve_driver_cell,
        columns=lambda params: tuple(params["select"]),
        # A driver cell runs a whole experiment table in one unit.
        timeout=7200.0,
    )
)


def driver_spec(
    experiment_id: str,
    select: Sequence[str],
    *,
    key_column: str = "scheme",
    value_column: str = "measured",
    config: ExperimentConfig | None = None,
    title: str | None = None,
) -> SweepSpec:
    """Declare a single driver-table cell wrapping one experiment.

    The returned spec has one row, identified by the ``driver`` param,
    whose value columns are the selected table entries.  Everything that
    determines the driver's output and participates in fingerprints —
    solver config, demand model, seed — is carried on the cell; the
    margin is pinned to the config's first margin (single-unit drivers
    either ignore it or use exactly one).
    """
    experiment = _get_experiment(experiment_id)
    config = config or ExperimentConfig.from_environment()
    cell = SweepCell(
        experiment=experiment.id,
        topology="driver",
        demand_model=config.demand_model,
        margin=config.margins[0],
        seed=config.seed,
        solver=config.solver,
        kind=DRIVER_KIND.name,
        params=freeze_params(
            {
                "driver": experiment.id,
                "select": tuple(select),
                "key_column": key_column,
                "value_column": value_column,
                # Full-scale selection participates in the fingerprint:
                # a reduced-grid result must never be served (or gated)
                # as a paper-scale one.
                "full": config.full,
            }
        ),
    )
    return SweepSpec(
        experiment=experiment.id,
        title=title or experiment.description,
        cells=(cell,),
        row_columns=("driver",),
    )
