"""Shared benchmark configuration.

The scripts here time what no other owner covers: the ablations, the
hardness constructions and the substrate micro-benchmarks.  Each keeps
its own shape assertions.  Experiment-level timings live in ``repro
bench`` (and CI's wall-clock gate), per-layer speed claims in ``perf/``,
and the paper-shape assertions on the experiment tables in ``tests/``.

Run them with ``pytest benchmarks`` (add ``--benchmark-disable`` to check
the assertions without timing).  ``REPRO_FULL=1`` switches the grids to
paper scale.
"""

from __future__ import annotations

import pytest

from repro.config import ExperimentConfig


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    """The grid benchmarks run with (reduced unless REPRO_FULL=1)."""
    return ExperimentConfig.from_environment()


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark a heavy callable with a single measured round."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
