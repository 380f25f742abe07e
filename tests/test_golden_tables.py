"""Golden-table regression tests: committed expected output for the grids.

Each case regenerates one experiment's table through the sweep runner at
a *pinned* golden config (margins and solver knobs fixed here, never
read from the environment) and compares it row-for-row against the JSON
fixture committed under ``tests/golden/``.  Any drift in solver or
evaluation semantics fails loudly with a per-row, per-column diff.

When a change is intentional, regenerate the fixtures with::

    pytest tests/test_golden_tables.py --update-golden

and commit the diff — the fixture churn *is* the review artifact.

The golden config is deliberately tiny (2 adversarial rounds, one
smoothing temperature) so the whole module stays under about a minute:
the fixtures pin reproducibility, not solution quality.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.config import ExperimentConfig, SolverConfig
from repro.experiments.margin_sweep import fig6_spec, fig7_spec, fig8_spec
from repro.experiments.table1 import table1_spec
from repro.runner.executor import run_sweep
from repro.utils.jsonio import write_json_atomic

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Row values must match the fixture to within this absolute tolerance.
TOLERANCE = 1e-9

#: Pinned solver for fixture generation — small enough that the whole
#: golden suite solves in about a minute, fully deterministic (fixed
#: seed, fixed iteration caps, single smoothing temperature).
GOLDEN_SOLVER = SolverConfig(
    max_adversarial_rounds=2,
    max_inner_iterations=8,
    smoothing_temperatures=(8.0,),
)


def _config(margins: tuple[float, ...]) -> ExperimentConfig:
    return ExperimentConfig(margins=margins, solver=GOLDEN_SOLVER)


#: name -> spec builder at the pinned golden config.  The expensive
#: topologies (Geant, AS1755) pin a single representative margin; the
#: cheaper ones afford the two-margin slice.
GOLDEN_SPECS = {
    "fig6": lambda: fig6_spec(_config((2.0,))),
    "fig7": lambda: fig7_spec(_config((1.0, 2.0))),
    "fig8": lambda: fig8_spec(_config((2.0,))),
    "table1": lambda: table1_spec(_config((1.0, 2.0)), topologies=("abilene", "nsf")),
}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def _nullish(value) -> bool:
    """NaN is written to fixtures as JSON null; treat them as one value."""
    return value is None or (isinstance(value, float) and math.isnan(value))


def _values_match(expected, actual) -> bool:
    if _nullish(expected) or _nullish(actual):
        return _nullish(expected) and _nullish(actual)
    if isinstance(expected, float) or isinstance(actual, float):
        return abs(float(expected) - float(actual)) <= TOLERANCE
    return expected == actual


def diff_tables(expected: dict, actual: dict) -> list[str]:
    """Human-readable row-level differences (empty when tables agree)."""
    problems: list[str] = []
    if expected["columns"] != actual["columns"]:
        problems.append(
            f"columns differ: expected {expected['columns']}, got {actual['columns']}"
        )
        return problems
    columns = expected["columns"]
    if len(expected["rows"]) != len(actual["rows"]):
        problems.append(
            f"row count differs: expected {len(expected['rows'])}, "
            f"got {len(actual['rows'])}"
        )
    for index, (expected_row, actual_row) in enumerate(
        zip(expected["rows"], actual["rows"])
    ):
        for column, expected_value, actual_value in zip(columns, expected_row, actual_row):
            if not _values_match(expected_value, actual_value):
                problems.append(
                    f"row {index} ({columns[0]}={expected_row[0]!r}) column "
                    f"{column!r}: expected {expected_value!r}, got {actual_value!r}"
                )
    return problems


def _regenerate(name: str) -> dict:
    spec = GOLDEN_SPECS[name]()
    table = run_sweep(spec).table()
    config = spec.cells[0].solver
    return {
        "experiment": spec.experiment,
        "title": table.title,
        # Echo of the pinned knobs, for humans reading fixture diffs.
        "golden_config": {
            "margins": sorted({cell.margin for cell in spec.cells}),
            "topologies": sorted({cell.topology for cell in spec.cells}),
            "max_adversarial_rounds": config.max_adversarial_rounds,
            "max_inner_iterations": config.max_inner_iterations,
            "smoothing_temperatures": list(config.smoothing_temperatures),
            "seed": config.seed,
        },
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_table(name: str, update_golden: bool):
    actual = _regenerate(name)
    path = golden_path(name)
    if update_golden:
        write_json_atomic(path, actual)
        print(f"golden fixture updated: {path}")
        return
    if not path.is_file():
        pytest.fail(
            f"missing golden fixture {path}; generate it with "
            f"`pytest {__file__} --update-golden` and commit the result"
        )
    expected = json.loads(path.read_text())
    problems = diff_tables(expected, actual)
    if problems:
        diff = "\n  ".join(problems)
        pytest.fail(
            f"{name} drifted from tests/golden/{name}.json "
            f"({len(problems)} difference(s)):\n  {diff}\n"
            f"If this change is intentional, rerun with --update-golden "
            f"and commit the fixture diff."
        )


#: Slack for the paper-shape rules below (solver noise, not a margin).
SHAPE_TOLERANCE = 1e-6


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_fixture_keeps_the_paper_shape(name: str):
    """The committed tables keep the paper's Table I / Figs. 6-8 claims.

    :func:`test_golden_table` pins the live tables to these fixtures, so
    the claims hold for live output too, and an ``--update-golden`` that
    breaks one fails here.
    """
    fixture = json.loads(golden_path(name).read_text())
    rows = [dict(zip(fixture["columns"], row)) for row in fixture["rows"]]
    assert rows
    for row in rows:
        assert row["COYOTE-pk"] <= row["ECMP"] + SHAPE_TOLERANCE, f"COYOTE-pk lost to ECMP: {row}"
        # Ratios are normalized by the optimum.
        assert row["COYOTE-obl"] >= 1.0 - SHAPE_TOLERANCE, row
        if abs(row["margin"] - 1.0) < 1e-9:
            # With no uncertainty Base is optimal and COYOTE-pk near it.
            assert abs(row["Base"] - 1.0) < SHAPE_TOLERANCE, row
            assert row["COYOTE-pk"] < 1.1, row
    if name == "fig7":
        # Base degrades under uncertainty (the paper's central observation).
        base = {row["margin"]: row["Base"] for row in rows}
        assert base[max(base)] > base[1.0]
    if name == "table1":
        config = fixture["golden_config"]
        assert len(rows) == len(config["topologies"]) * len(config["margins"])
