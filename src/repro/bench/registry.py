"""The benchmark registry: named, declared performance workloads.

A :class:`Benchmark` binds a name to one experiment's sweep spec — the
grid of cells to time — so ``repro bench`` and CI's wall-clock gate
execute the experiment's own workload through one code path
(:func:`repro.bench.harness.run_benchmark`).  These are experiment-level
smoke timings; per-layer attribution (kernel, LP, softmax) is ``perf/``'s
job.

Grid experiments reuse their registered spec builders directly; the
single-unit experiments (the running example, Fig. 12's prototype) wrap
their drivers as one ``driver-table`` cell, so every benchmark — grid or
not — rides the sweep executor, its timing hooks, and the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.config import ExperimentConfig
from repro.exceptions import ExperimentError
from repro.experiments.registry import driver_spec, experiment_spec
from repro.runner.spec import SweepSpec


@dataclass(frozen=True)
class Benchmark:
    """One declared benchmark: its name, experiment, and cell grid.

    Attributes:
        name: registry identifier (``repro bench <name>``).
        experiment: the experiment registry id the benchmark times.
        description: one-line summary shown by ``repro bench --list``.
        spec: builds the sweep spec (the grid size and schemes come from
            the config: reduced by default, paper-scale with ``--full``).
    """

    name: str
    experiment: str
    description: str
    spec: Callable[[ExperimentConfig], SweepSpec]

    def grid_summary(self, config: ExperimentConfig) -> str:
        """Human-readable grid size + schemes at the given config."""
        spec = self.spec(config)
        columns = ", ".join(spec.value_columns())
        return f"{len(spec.cells)} cells -> [{columns}]"


def _grid_benchmark(experiment_id: str, description: str) -> Benchmark:
    return Benchmark(
        name=experiment_id,
        experiment=experiment_id,
        description=description,
        spec=lambda config, _id=experiment_id: experiment_spec(_id, config),
    )


BENCHMARKS: dict[str, Benchmark] = {}


def register_benchmark(benchmark: Benchmark) -> Benchmark:
    """Register ``benchmark`` under its name (later registrations win)."""
    BENCHMARKS[benchmark.name] = benchmark
    return benchmark


for _experiment, _description in [
    ("fig6", "Fig. 6 margin sweep (Geant, gravity)"),
    ("fig7", "Fig. 7 margin sweep (Digex, gravity)"),
    ("fig8", "Fig. 8 margin sweep (AS1755, bimodal)"),
    ("fig9", "Fig. 9 local-search heuristic (Abilene, bimodal)"),
    ("fig10", "Fig. 10 virtual next-hop approximation (AS1755)"),
    ("fig11", "Fig. 11 average path stretch (topology-parallel)"),
    ("table1", "Table I margin sweep across topologies"),
]:
    register_benchmark(_grid_benchmark(_experiment, _description))

register_benchmark(
    Benchmark(
        name="running-example",
        experiment="running-example",
        description="Fig. 1 / Appendix B oblivious ratios (end-to-end stack)",
        spec=lambda config: driver_spec(
            "running-example",
            select=("ECMP (Fig. 1b)", "COYOTE (Fig. 1c)", "COYOTE (optimized)"),
            config=config,
        ),
    )
)

register_benchmark(
    Benchmark(
        name="fig12",
        experiment="fig12",
        description="Fig. 12 prototype packet-drop emulation (worst phase)",
        spec=lambda config: driver_spec(
            "fig12",
            select=("TE1", "TE2", "COYOTE"),
            value_column="worst",
            config=config,
        ),
    )
)


def benchmark_names() -> list[str]:
    return list(BENCHMARKS)


def get_benchmark(name: str) -> Benchmark:
    benchmark = BENCHMARKS.get(name)
    if benchmark is None:
        raise ExperimentError(
            f"unknown benchmark {name!r}; available: {', '.join(BENCHMARKS)}"
        )
    return benchmark
