"""Median, quartile and geometric-mean arithmetic."""

import math
import statistics

import pytest

from stats import geomean, quartiles, summary


@pytest.mark.parametrize(
    "values",
    [[3.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [5.0, 1.0, 9.0, 2.0, 7.0, 3.0, 8.0, 4.0, 6.0, 10.0]],
)
def test_quartiles_match_statistics_quantiles(values):
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == statistics.median(values)


def test_quartiles_of_one_value_and_of_none():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        quartiles([])


def test_summary_keeps_samples_in_run_order():
    row = summary([4.0, 1.0, 3.0, 2.0])
    assert row["values"] == [4.0, 1.0, 3.0, 2.0]
    assert (row["min"], row["max"], row["n"]) == (1.0, 4.0, 4)
    assert row["median"] == 2.5
    assert (row["q1"], row["q3"]) == (1.25, 3.75)


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([1.5]) == pytest.approx(1.5)
    assert geomean([1.0, math.e, math.e**2]) == pytest.approx(math.e)
    with pytest.raises(ValueError):
        geomean([])
