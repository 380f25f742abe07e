"""Benchmark execution: time a declared workload, emit ``BENCH_*.json``.

:func:`run_benchmark` executes one registered benchmark's sweep spec
through :func:`~repro.runner.executor.run_sweep` — the same parallel
executor the experiments use — so benchmark timings measure exactly the
production code path.  Each cell's setup/solve/evaluate phases are
recorded by the runner's monotonic-clock hooks
(:mod:`repro.runner.timing`); the resulting :class:`BenchResult`
serializes to a machine-readable payload with per-cell timings,
aggregate wall-clock, cache hit/miss counters, and a config fingerprint
that ties the numbers to the exact grid that produced them.

:func:`write_bench_result` persists the payload as
``BENCH_<name>.json`` (atomic write, like every other artifact), which
is both the CI artifact and the baseline format
:mod:`repro.bench.baseline` compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.bench.registry import Benchmark, get_benchmark
from repro.config import ExperimentConfig
from repro.runner.executor import SweepCell, SweepReport, run_sweep, solve_cell
from repro.runner.faults import FailurePolicy
from repro.runner.spec import CACHE_VERSION, spec_fingerprint  # noqa: F401  (re-export)
from repro.runner.store import CellStore
from repro.utils.jsonio import write_json_atomic

#: Payload format tag; bump when the BENCH_*.json shape changes.
#: (The additive "lifecycle"/"events"/"failures" keys do not constitute
#: a shape change.)
BENCH_SCHEMA = "repro-bench-v1"


def _cell_record(result) -> dict:
    cell = result.cell
    return {
        "key": result.key,
        "kind": cell.kind,
        "topology": cell.topology,
        "demand_model": cell.demand_model,
        "margin": cell.margin,
        "params": cell.fingerprint()["params"],
        "cached": result.cached,
        "status": result.status,
        "timings": {name: round(seconds, 6) for name, seconds in result.timings.items()},
    }


@dataclass
class BenchResult:
    """One timed benchmark run, ready to serialize or compare."""

    benchmark: Benchmark
    report: SweepReport
    full: bool

    def table(self):
        return self.report.table()

    def payload(self) -> dict:
        """The machine-readable ``BENCH_<name>.json`` document."""
        report = self.report
        table = self.table()
        return {
            "schema": BENCH_SCHEMA,
            "benchmark": self.benchmark.name,
            "experiment": self.benchmark.experiment,
            "cache_version": CACHE_VERSION,
            "config_fingerprint": spec_fingerprint(report.spec),
            "full": self.full,
            "jobs": report.jobs,
            "wall_clock_seconds": round(report.elapsed, 6),
            "cache": {"hits": report.cached, "misses": report.solved},
            "failures": {
                "quarantined": report.quarantined,
                "retried": report.lifecycle_counts().get("retried", 0),
                "timed_out": report.lifecycle_counts().get("timed-out", 0),
            },
            "lifecycle": report.lifecycle_counts(),
            "events": [event.as_payload() for event in report.events],
            "phase_totals": {
                name: round(seconds, 6) for name, seconds in report.phase_totals().items()
            },
            "cells": [_cell_record(result) for result in report.results],
            "table": {
                "title": table.title,
                "columns": list(table.columns),
                "rows": [list(row) for row in table.rows],
            },
        }

    def summary(self) -> str:
        report = self.report
        phases = report.phase_totals()
        breakdown = ", ".join(
            f"{name} {phases[name]:.1f}s" for name in ("setup", "solve", "evaluate")
            if name in phases
        )
        return (
            f"{self.benchmark.name}: {len(report.results)} cells "
            f"({report.solved} solved, {report.cached} cached) "
            f"wall {report.elapsed:.1f}s"
            + (f" [{breakdown}]" if breakdown else "")
        )


def run_benchmark(
    benchmark: Benchmark | str,
    config: ExperimentConfig | None = None,
    *,
    jobs: int = 1,
    cache: CellStore | None = None,
    solve: Callable[[SweepCell], dict[str, float]] = solve_cell,
    failures: FailurePolicy | None = None,
) -> BenchResult:
    """Execute one benchmark and return its timed result.

    Args:
        benchmark: a :class:`Benchmark` or its registry name.
        config: grid scale; defaults to the environment config (reduced
            unless ``REPRO_FULL=1``).
        jobs: worker processes for the sweep executor.
        cache: optional result cache — cells served from it report zero
            phase time and count as hits, so benchmarks meant to measure
            solve cost should run uncached (the CLI's default).
        solve: cell solver (injectable for tests).
        failures: the sweep's retry/timeout/quarantine policy
            (:class:`~repro.runner.faults.FailurePolicy`); retries
            inflate the benchmarked wall-clock, so the payload's
            "failures" block records whether any occurred.
    """
    if isinstance(benchmark, str):
        benchmark = get_benchmark(benchmark)
    config = config or ExperimentConfig.from_environment()
    report = run_sweep(
        benchmark.spec(config), jobs=jobs, cache=cache, solve=solve, failures=failures
    )
    return BenchResult(benchmark=benchmark, report=report, full=config.full)


def bench_path(out_dir: str | Path, name: str) -> Path:
    """Where a benchmark's JSON result lives under ``out_dir``."""
    return Path(out_dir).expanduser() / f"BENCH_{name}.json"


def write_bench_result(result: BenchResult, out_dir: str | Path) -> Path:
    """Atomically write ``BENCH_<name>.json``; returns the path."""
    return write_json_atomic(bench_path(out_dir, result.benchmark.name), result.payload())
