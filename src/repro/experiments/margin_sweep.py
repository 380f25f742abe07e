"""Margin-sweep experiments: Figs. 6, 7, 8 and the Table I blocks.

Each figure plots, for one topology and base-demand model, the
worst-case performance ratio of the four schemes as the uncertainty
margin grows.  The paper's reading (Section VI-B): both COYOTE variants
beat ECMP throughout, and the Base routing — optimal with *no*
uncertainty — degrades quickly as the margin widens, often falling
behind even ECMP.

The drivers declare their grid as a :class:`~repro.runner.spec.SweepSpec`
(one cell per margin) and hand execution to the sweep runner, which can
fan cells out over a process pool and serve repeats from the result
cache.
"""

from __future__ import annotations

from repro.config import ExperimentConfig
from repro.runner.executor import run_sweep
from repro.runner.spec import SweepSpec, grid_cells
from repro.topologies.zoo import topology_info
from repro.utils.tables import Table


def margin_sweep_spec(
    topology: str,
    demand_model: str,
    config: ExperimentConfig | None = None,
    title: str | None = None,
    experiment: str | None = None,
) -> SweepSpec:
    """Declare the margin-sweep grid for one (topology, demand model) pair.

    Args:
        topology: a registered topology name (e.g. "geant").
        demand_model: "gravity" or "bimodal".
        config: margins + solver knobs; defaults to the environment
            config (reduced unless ``REPRO_FULL=1``).
        title: table title override.
        experiment: registry id used to name artifacts (defaults to a
            "<topology>-<demand_model>" tag for ad-hoc sweeps).
    """
    config = config or ExperimentConfig.from_environment()
    # Registry metadata, not load_topology(): building the network here
    # would make even a fully-cached sweep pay topology construction.
    info = topology_info(topology)
    cells = grid_cells(
        experiment or f"{topology}-{demand_model}",
        [topology],
        demand_model,
        config.margins,
        config.solver,
        config.seed,
    )
    notes = (
        f"topology={topology} ({info.nodes} nodes / {2 * info.links} "
        f"directed edges), demand model={demand_model}, margins={config.margins}",
        "ratios are worst-case link utilization normalized by the demands-aware "
        "optimum within the same augmented DAGs (Section VI)",
    )
    return SweepSpec(
        experiment=cells[0].experiment,
        title=title or f"{topology} / {demand_model} margin sweep",
        cells=cells,
        notes=notes,
    )


def margin_sweep_experiment(
    topology: str,
    demand_model: str,
    config: ExperimentConfig | None = None,
    title: str | None = None,
) -> Table:
    """Worst-case ratio of every scheme across the margin grid (serial)."""
    return run_sweep(margin_sweep_spec(topology, demand_model, config, title)).table()


def fig6_spec(config: ExperimentConfig | None = None) -> SweepSpec:
    return margin_sweep_spec(
        "geant", "gravity", config, "Fig. 6 — Geant, gravity", experiment="fig6"
    )


def fig7_spec(config: ExperimentConfig | None = None) -> SweepSpec:
    return margin_sweep_spec(
        "digex", "gravity", config, "Fig. 7 — Digex, gravity", experiment="fig7"
    )


def fig8_spec(config: ExperimentConfig | None = None) -> SweepSpec:
    return margin_sweep_spec(
        "as1755", "bimodal", config, "Fig. 8 — AS1755, bimodal", experiment="fig8"
    )


def fig6(config: ExperimentConfig | None = None) -> Table:
    """Fig. 6: Geant, gravity model."""
    return run_sweep(fig6_spec(config)).table()


def fig7(config: ExperimentConfig | None = None) -> Table:
    """Fig. 7: Digex, gravity model."""
    return run_sweep(fig7_spec(config)).table()


def fig8(config: ExperimentConfig | None = None) -> Table:
    """Fig. 8: AS 1755, bimodal model."""
    return run_sweep(fig8_spec(config)).table()
