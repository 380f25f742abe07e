"""Verdicts of ``compare.py``: ok, worse, unresolved and gain."""

import json

import pytest

import compare

LOWER = {"better": "lower", "bound": 0.10, "absolute": False}
HIGHER_ABS = {"better": "higher", "bound": 0.0, "absolute": True}


def test_within_the_bound_is_ok():
    assert compare.verdict(LOWER, [10.0, 10.1, 9.9], [10.8, 10.9, 10.7]) == "ok"


def test_beyond_the_bound_is_worse():
    assert compare.verdict(LOWER, [10.0, 10.1, 9.9], [11.5, 11.6, 11.4]) == "worse"


def test_direction_follows_better():
    higher = {**LOWER, "better": "higher"}
    assert compare.verdict(higher, [10.0, 10.1, 9.9], [11.5, 11.6, 11.4]) == "ok"
    assert compare.verdict(higher, [10.0, 10.1, 9.9], [8.5, 8.6, 8.4]) == "worse"


def test_wide_parent_spread_is_unresolved():
    parent = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert compare.verdict(LOWER, parent, [10.0, 10.5, 9.5]) == "unresolved"


def test_wide_spread_but_every_run_better_is_ok():
    parent = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert compare.verdict(LOWER, parent, [7.0, 7.5, 6.5]) == "ok"


def test_absolute_zero_bound_flags_any_loss():
    assert compare.verdict(HIGHER_ABS, [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]) == "ok"
    assert compare.verdict(HIGHER_ABS, [0.5, 0.5, 0.5], [0.25, 0.25, 0.25]) == "worse"


def test_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr():
    parent = [10.0 + 0.1 * (i % 3) for i in range(10)]
    change = [9.0] * 9 + [10.5]
    assert compare.verdict(LOWER, parent, change) == "gain"
    assert compare.verdict(LOWER, parent[:9], change[:9]) == "ok"  # too few pairs
    assert compare.verdict(LOWER, parent, [9.0] * 8 + [10.5] * 2) != "gain"  # 8/10 wins
    near = [p - 0.05 for p in parent]  # wins every pair, gap inside the IQR
    assert compare.verdict(LOWER, parent, near) == "ok"


def _summary(path, values):
    path.write_text(json.dumps({"workloads": {"audit": {
        "metrics": {"wall_s": {"unit": "s", "values": values}},
        "layers": {"lp.model.solve_calls": 100},
    }}}))
    return path


def test_main_exit_status_and_directory_merge(tmp_path, capsys):
    parent = _summary(tmp_path / "a.json", [10.0, 10.1, 9.9])
    assert compare.main([str(parent), str(_summary(tmp_path / "b.json", [10.0, 10.1, 9.9]))]) == 0
    assert compare.main([str(parent), str(_summary(tmp_path / "c.json", [14.0, 14.1]))]) == 1
    output = capsys.readouterr().out
    assert "worse" in output and "lp.model.solve_calls" in output

    runs = tmp_path / "runs"
    runs.mkdir()
    _summary(runs / "1.json", [1.0, 2.0])
    _summary(runs / "2.json", [3.0])
    assert compare.load(runs)["audit"]["metrics"]["wall_s"] == [1.0, 2.0, 3.0]


def test_rows_cover_declared_metrics_on_both_sides():
    side = {"audit": {"metrics": {"wall_s": [1.0, 1.0], "unknown": [1.0]}, "layers": {}}}
    rows = compare.compare(side, side, {"wall_s": LOWER})
    assert [(row["metric"], row["verdict"]) for row in rows] == [("wall_s", "ok")]
    assert rows[0]["delta"] == pytest.approx(0.0)
