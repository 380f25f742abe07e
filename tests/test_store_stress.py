"""Multiprocess stress: two executors race put/get on one DirStore.

Concurrent executors sharing a store directory need no coordination.
They may solve a cell twice, but the store must show no torn reads
(every entry in it verifies), and a warm pass over the shared store
must reproduce the serial table row-identically.
"""

import json
import multiprocessing
import os

import pytest

from repro.config import SolverConfig
from repro.experiments.common import SCHEME_COLUMNS
from repro.runner.executor import run_sweep
from repro.runner.spec import SweepCell, SweepSpec
from repro.runner.store import DirStore, verify_store

TINY_SOLVER = SolverConfig(
    max_adversarial_rounds=2,
    max_inner_iterations=10,
    smoothing_temperatures=(8.0, 64.0),
)

MARGINS = tuple(float(m) for m in range(1, 13))


def make_spec():
    cells = tuple(
        SweepCell(
            experiment="stress",
            topology="abilene",
            demand_model="gravity",
            margin=margin,
            seed=7,
            solver=TINY_SOLVER,
        )
        for margin in MARGINS
    )
    return SweepSpec(experiment="stress", title="stress sweep", cells=cells)


def _slow_stub_solve(cell):
    """Deterministic values with enough wall-clock to force interleaving."""
    import time

    time.sleep(0.02)
    return {scheme: cell.margin + i for i, scheme in enumerate(SCHEME_COLUMNS)}


def _race_one_executor(store_root, out_path, barrier):
    """One contender: a full sweep over the shared store."""
    barrier.wait()  # maximize overlap between the two executors
    report = run_sweep(make_spec(), cache=DirStore(store_root), solve=_slow_stub_solve)
    with open(out_path, "w") as handle:
        json.dump({"complete": report.complete, "resolved": len(report.results)}, handle)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork start method")
class TestConcurrentExecutors:
    def test_two_executors_race_cleanly(self, tmp_path):
        spec = make_spec()
        store_root = tmp_path / "store"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        outs = [tmp_path / f"report{i}.json" for i in range(2)]
        procs = [
            ctx.Process(
                target=_race_one_executor,
                args=(str(store_root), str(outs[i]), barrier),
            )
            for i in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        reports = [json.loads(path.read_text()) for path in outs]
        # Each executor resolved the whole grid, by solving or from hits.
        assert reports == [{"complete": True, "resolved": len(spec.cells)}] * 2

        # No torn reads / torn writes: every entry in the shared store
        # parses and re-hashes to its own filename.
        store = DirStore(store_root)
        assert len(store) == len(spec.cells)
        verification = verify_store(store)
        assert verification.ok, verification.problems

        # Row-identical output: a warm pass over the raced store
        # reproduces the serial table exactly.
        warm = run_sweep(spec, cache=store, solve=_slow_stub_solve)
        assert warm.complete and warm.solved == 0
        assert warm.cached == len(spec.cells)
        serial = run_sweep(spec, solve=_slow_stub_solve)
        assert warm.table().rows == serial.table().rows
