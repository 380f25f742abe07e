"""Fig. 10: approximating ideal splitting with few virtual next hops.

COYOTE's ideal splitting ratios assume arbitrarily fine traffic
division; real ECMP realizes only ``m / total`` fractions, where
multiplicities come from injected virtual links.  The paper's findings
on AS1755 (all other topologies behave alike): 3 virtual links per
interface already beat ECMP by ~50%, and 10 links approximate the ideal
configuration closely.

The experiment decomposes into (margin x budget) sweep cells of the
``"fig10-nh-approx"`` kind.  A cell with ``budget=None`` produces the
margin's "ECMP" and "ideal" columns; a cell with ``budget=k`` produces
its "k NHs" column.  All cells of one topology share the
margin-independent :func:`~repro.experiments.common.shared_setup`, and
cells of one margin additionally share the memoized worst-case oracle
and ideal (COYOTE-pk) routing, so a chunked worker pays the expensive
robust optimization once per margin.  The runner merges the cells of
each margin into a single table row.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import ExperimentConfig
from repro.experiments.common import coyote_partial_for_margin, shared_setup
from repro.fibbing.apportionment import approximate_routing
from repro.runner.executor import run_sweep
from repro.runner.memo import LruMemo
from repro.runner.spec import (
    CellKind,
    SweepCell,
    SweepSpec,
    freeze_params,
    register_cell_kind,
)
from repro.runner.timing import phase
from repro.utils.tables import Table

BUDGETS: tuple[int, ...] = (3, 5, 10)

#: Margin-level shared state: (oracle, ideal routing) per (setup, margin).
_MARGIN_MEMO = LruMemo(limit=4)


def _fig10_columns(params: dict) -> tuple[str, ...]:
    budget = params.get("budget")
    if budget is None:
        return ("ECMP", "ideal")
    return (f"{budget} NHs",)


def _oracle_and_ideal(cell: SweepCell):
    """The margin's worst-case oracle and ideal COYOTE-pk routing, memoized."""

    def build():
        ideal = coyote_partial_for_margin(shared_setup(cell), cell.margin)
        return ideal.evaluator, ideal.routing

    return _MARGIN_MEMO.get_or_create((cell.setup_key(), cell.margin), build)


def solve_fig10_cell(cell: SweepCell) -> dict[str, float]:
    """Solve one approximation cell (base columns or one budget column).

    The "setup" and "solve" phases are recorded inside
    :func:`~repro.experiments.common.shared_setup` and
    :func:`~repro.experiments.common.coyote_partial_for_margin` (both
    memoized, so only the first cell of a margin pays them); the oracle
    evaluations here are the per-cell "evaluate" phase.
    """
    oracle, ideal = _oracle_and_ideal(cell)
    budget = cell.params_dict().get("budget")
    if budget is None:
        setup = shared_setup(cell)
        with phase("evaluate"):
            return {
                "ECMP": oracle.evaluate(setup.ecmp).ratio,
                "ideal": oracle.evaluate(ideal).ratio,
            }
    approx, _stats = approximate_routing(ideal, budget)
    with phase("evaluate"):
        return {f"{budget} NHs": oracle.evaluate(approx).ratio}


FIG10_KIND = register_cell_kind(
    CellKind(
        name="fig10-nh-approx", solve=solve_fig10_cell, columns=_fig10_columns, timeout=3600.0
    )
)


def fig10_spec(
    config: ExperimentConfig | None = None,
    topology: str = "as1755",
    budgets: Sequence[int] = BUDGETS,
) -> SweepSpec:
    """Declare the Fig. 10 grid: per margin, one base cell + one per budget."""
    config = config or ExperimentConfig.from_environment()
    budgets = tuple(budgets)
    cells = tuple(
        SweepCell(
            experiment="fig10",
            topology=topology,
            demand_model="gravity",
            margin=margin,
            seed=config.seed,
            solver=config.solver,
            kind=FIG10_KIND.name,
            params=freeze_params({"budget": budget}),
        )
        for margin in config.margins
        for budget in (None, *budgets)
    )
    return SweepSpec(
        experiment="fig10",
        title=f"Fig. 10 — {topology}, splitting approximation",
        cells=cells,
        notes=(
            "each 'k NHs' column evaluates the ideal COYOTE ratios rounded to at "
            "most k virtual next hops per interface (largest-remainder apportionment)",
        ),
    )


def fig10(
    config: ExperimentConfig | None = None,
    topology: str = "as1755",
    budgets: Sequence[int] = BUDGETS,
) -> Table:
    """Regenerate Fig. 10 (splitting-approximation quality vs lie budget)."""
    return run_sweep(fig10_spec(config, topology, budgets)).table()
