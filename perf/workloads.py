"""The benchmark's workloads, measured inside one fresh child process.

``perf/run.py`` starts this file once per measurement (``python3
perf/workloads.py --workload margin --seed 7 --seconds 30 --trace 0 --out
DIR``) and reads the JSON object it prints last.

Inputs come from ``--seed`` alone: it seeds a sequence of instance
seeds, and each feeds ``bimodal_matrix`` -- the repository's only seeded
input generator -- for one *instance*, solved by one pass of the
workload.  Passes run back to back, one at a time, until ``--seconds``
have passed, but never fewer than the workload's *pool* of first
instances.  ``wall_s`` is the median pass time over every pass, in
reference seconds (see ``reference.py``); quality metrics (certified
ratios, stretch, convergence) come from the pool alone, so they do not
depend on how fast the machine is.  A traced run (``--trace 1``) solves
the pool with every layer wrapped (see ``tracer.py``) and reports
per-layer totals over it, in raw seconds, so its counts repeat exactly
for a seed.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.config import ExperimentConfig
from repro.core import dag_builder, robust, softmax_opt
from repro.demands.bimodal import bimodal_matrix
from repro.demands.uncertainty import margin_box
from repro.ecmp import routing as ecmp_module
from repro.ecmp.weights import inverse_capacity_weights
from repro.experiments import common, fig11_stretch  # importing registers their cell kinds
from repro.kernel import coefficients
from repro.lp import dag_flow, mcf, model, worst_case
from repro.routing import splitting
from repro.runner import executor, store
from repro.runner.faults import FailurePolicy
from repro.runner.spec import SweepCell, SweepSpec, cell_key, grid_cells
from repro.topologies import zoo

import stats
from reference import REFERENCE_SECONDS, reference_seconds
from tracer import Patcher, Tracer, chrome_trace, layer_table, wrapper_cost

#: The repository's reduced experiment config, scaled down once more
#: (3 adversarial rounds, 26 inner iterations, temperatures 8 and 32) so
#: that a run holds enough instances to make its medians steady.
SOLVER = ExperimentConfig.reduced().solver.scaled_down()

#: Certified ratios may undershoot 1 by LP round-off, never by more.
RATIO_FLOOR = 1.0 - 1e-6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name ``--workload`` takes.
        kind: ``"fig11-stretch"`` or ``"margin"`` (sweep cells of that
            registered kind, run through ``run_sweep``) or ``"audit"``
            (oracle scoring of fixed routings through the public API).
        topology: registered topology name.
        margins: uncertainty margins, one cell or oracle per margin.
        pool: the first instances, which every run solves; quality
            metrics and traced totals cover exactly these.
    """

    name: str
    kind: str
    topology: str
    margins: tuple[float, ...]
    pool: int


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Fig. 11 stretch cells: the oblivious robust solve plus one
        # margin solve, dominated by the softmax inner optimizer.
        Workload("oblivious", "fig11-stretch", "abilene", (2.5,), pool=5),
        # Table I / Figs. 6-8 cells: two margins sharing one memoized
        # setup (which holds the oblivious solve); both hot layers.
        Workload("margin", "margin", "abilene", (1.5, 3.0), pool=4),
        # Worst-case scoring of fixed ECMP and Base routings: LP only.
        Workload("audit", "audit", "nsf", (1.0, 2.0, 3.0, 4.0, 5.0), pool=10),
    )
}


@dataclass
class Run:
    """What one measurement collects."""

    workload: Workload
    tracer: Tracer | None = None
    #: Pass times in seconds, and in reference seconds (see reference.py).
    walls: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    #: Every reference timing, in order; the first precedes the first pass.
    references: list[float] = field(default_factory=list)
    attempted: int = 0
    failed_ops: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    #: Certified ratios of the pool's operations (robust solves or audits).
    ratios: list[float] = field(default_factory=list)
    solves: list[tuple[str, float, bool]] = field(default_factory=list)
    stretches: list[float] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    in_pool: bool = True
    op: str = ""
    _since: float = 0.0
    _raw: float = 0.0
    _scaled: float = 0.0

    def start_timing(self) -> None:
        """Open the timed region of a pass."""
        self._raw = self._scaled = 0.0
        self._since = time.perf_counter()

    def split(self) -> None:
        """Close the current timed segment with a reference timing; open the next.

        The segment is scaled by the mean of the references just before
        and just after it, so a pass split into short segments tracks
        the machine's speed while it ran.
        """
        elapsed = time.perf_counter() - self._since
        self.references.append(reference_seconds())
        before, after = self.references[-2:]
        self._raw += elapsed
        self._scaled += elapsed * REFERENCE_SECONDS / ((before + after) / 2.0)
        self._since = time.perf_counter()

    def stop_timing(self) -> None:
        """Close the timed region of a pass and record its times."""
        self.split()
        self.walls.append(self._raw)
        self.scaled.append(self._scaled)

    def fail(self, op: str, problem: str) -> None:
        """Count ``op`` as failed (once, however many checks it breaks)."""
        self.failed_ops.add(op)
        self.problems.append(f"{op}: {problem}")

    def label(self, trace_id: str) -> None:
        if self.tracer is not None:
            self.tracer.trace_id = trace_id

    @contextmanager
    def untraced(self):
        """Output checks and warm re-sweeps stay out of the layer spans."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False


# -- result hooks -------------------------------------------------------------

_ROBUST_SIGNATURE = inspect.signature(robust.optimize_robust_splitting)


def record_solve(run: Run, result: robust.RobustResult, args: tuple, kwargs: dict) -> None:
    """Result-only hook on ``optimize_robust_splitting``: no timestamps."""
    call = _ROBUST_SIGNATURE.bind(*args, **kwargs)
    call.apply_defaults()
    name, config = call.arguments["name"], call.arguments["config"]
    ratio = result.oracle.ratio
    converged = bool(result.history) and (
        result.history[-1][1] <= result.history[-1][0] * (1.0 + config.ratio_tolerance)
    )
    if ratio < RATIO_FLOOR:
        run.fail(run.op, f"{name} certified ratio {ratio!r} below 1")
    if not run.in_pool:
        return
    run.ratios.append(ratio)
    run.solves.append((name, ratio, converged))
    run.counts["core.robust.rounds"] += result.rounds
    run.counts["core.robust.matrices"] += len(result.matrices)
    run.counts["core.robust.converged"] += converged
    run.counts["core.robust.fallback_wins"] += result.routing.name != name


def _count(key: str, run: Run) -> Callable:
    def on_result(result, _args, _kwargs):
        run.counts[key] += result.evaluations

    return on_result


def install(run: Run) -> Patcher:
    """Patch the hooks (and, when tracing, every layer) into the program."""
    patcher = Patcher()
    hook = functools.partial(record_solve, run)
    original = robust.optimize_robust_splitting
    if run.tracer is None:

        @functools.wraps(original)
        def robust_hook(*args, **kwargs):
            result = original(*args, **kwargs)
            hook(result, args, kwargs)
            return result

        patcher.replace_function(original, robust_hook)
        return patcher
    functions = [
        ("core.robust.optimize", original, hook),
        ("core.softmax_opt.optimize", softmax_opt.optimize_splitting_softmax,
         _count("core.softmax_opt.evaluations", run)),
        ("core.softmax_opt.polish", softmax_opt.polish_balanced,
         _count("core.softmax_opt.polish_evaluations", run)),
        ("lp.dag_flow.optimal", dag_flow.optimal_dag_routing, None),
        ("kernel.load_coefficients", coefficients.load_coefficients, None),
        ("core.dag_builder.build_dags", dag_builder.build_dags, None),
        ("ecmp.routing", ecmp_module.ecmp_routing, None),
        ("topologies.load", zoo.load_topology, None),
        ("runner.sweep", executor.run_sweep, None),
    ]
    methods = [
        ("lp.model.solve", model.ReusableLP, "solve"),
        ("lp.model.solve", model.CompiledLP, "solve"),
        ("lp.model.compile", model.Model, "compile"),
        ("lp.worst_case.build", worst_case.WorstCaseOracle, "__init__"),
        ("lp.worst_case.evaluate", worst_case.WorstCaseOracle, "evaluate"),
        ("lp.mcf.solve", mcf.MinCongestionSolver, "solve"),
        ("routing.stretch", splitting.Routing, "average_stretch_against"),
        ("runner.store_get", store.DirStore, "get"),
        ("runner.store_put", store.DirStore, "put"),
    ]
    try:
        for name, function, on_result in functions:
            patcher.replace_function(function, run.tracer.wrap(name, function, on_result))
        for name, cls, attr in methods:
            patcher.replace_method(cls, attr, run.tracer.wrap(name, cls.__dict__[attr]))
    except BaseException:
        patcher.restore()
        raise
    return patcher


# -- passes -------------------------------------------------------------------


def sweep_spec(workload: Workload, seed: int) -> SweepSpec:
    """One instance of a sweep workload: its cells at one sub-seed."""
    experiment = f"perf-{workload.name}"
    if workload.kind == "margin":
        cells = grid_cells(
            experiment, [workload.topology], "bimodal", workload.margins, SOLVER, seed
        )
        rows = ("margin",)
    else:
        cells = tuple(
            SweepCell(experiment, workload.topology, "bimodal", margin, seed, SOLVER,
                      kind=workload.kind)
            for margin in workload.margins
        )
        rows = ("network",)
    return SweepSpec(experiment, f"{workload.name} instance", cells, row_columns=rows)


def cell_op(cell: SweepCell) -> str:
    return f"{cell.kind}:{cell.topology}@{cell.margin:g}"


def sweep_pass(run: Run, seed: int, pass_id: str, scratch: Path) -> None:
    """Cold sweep of one instance into a fresh store, then its checks."""
    spec = sweep_spec(run.workload, seed)
    cache = store.DirStore(scratch / pass_id)
    policy = FailurePolicy(max_attempts=1, keep_going=True)
    solve_cell = executor.solve_cell
    if run.tracer is not None:
        solve_cell = run.tracer.wrap("experiments.cell", solve_cell)

    def solve(cell: SweepCell) -> dict[str, float]:
        if run.op and run.tracer is None:
            run.split()  # between cells: the margin pass's cells share a setup
        run.op = cell_op(cell)
        run.label(f"{pass_id}/{run.op}")
        try:
            return solve_cell(cell)
        finally:
            run.label(pass_id)

    run.label(pass_id)
    run.attempted += len(spec.cells)
    run.op = ""
    run.start_timing()
    report = executor.run_sweep(spec, jobs=1, cache=cache, solve=solve, failures=policy)
    run.stop_timing()

    with run.untraced():
        failed = {skip.key for skip in report.skipped}
        for skip in report.skipped:
            run.fail(cell_op(skip.cell), f"not solved ({skip.reason}: {skip.detail})")
        if run.in_pool:
            run.counts["runner.failed_events"] += sum(
                event.event in ("failed", "quarantined") for event in report.events
            )
        solved = [cell for cell in spec.cells if cell_key(cell) not in failed]
        table = report.table()
        start = time.perf_counter()
        warm = executor.run_sweep(spec, jobs=1, cache=cache, failures=policy).table()
        if run.in_pool:
            run.counts["runner.warm_resweep_s"] += time.perf_counter() - start
        check_rows(run, solved, table, warm)


def check_rows(run: Run, cells: list[SweepCell], table, warm) -> None:
    """Row checks: ratios certified, COYOTE-pk within ECMP, warm == cold."""
    ops = [cell_op(cell) for cell in cells]
    if len(table.rows) != len(ops) or len(warm.rows) != len(ops):
        for op in ops:
            run.fail(op, f"{len(table.rows)} cold / {len(warm.rows)} warm rows")
        return
    for op, row, warm_row in zip(ops, table.rows, warm.rows):
        if warm_row != row:
            run.fail(op, f"warm re-sweep row {warm_row!r} differs from cold {row!r}")
        values = dict(zip(table.columns, row))
        if run.workload.kind == "margin":
            for scheme in common.SCHEME_COLUMNS:
                if values[scheme] < RATIO_FLOOR:
                    run.fail(op, f"{scheme} ratio {values[scheme]!r} below 1")
            if values["COYOTE-pk"] > values["ECMP"] * (1.0 + 1e-3):
                run.fail(op, f"COYOTE-pk {values['COYOTE-pk']!r} > ECMP {values['ECMP']!r}")
        elif run.in_pool:
            run.stretches.extend(values[column] for column in fig11_stretch.FIG11_COLUMNS)


def audit_pass(run: Run, seed: int, pass_id: str, scratch: Path) -> None:
    """Score ECMP and Base at every margin of one instance, then the checks."""
    workload = run.workload
    ops = [
        f"audit:{scheme}@{margin:g}" for margin in workload.margins for scheme in ("ECMP", "Base")
    ]
    run.attempted += len(ops)
    ratios: dict[str, list[float | None]] = {"ECMP": [], "Base": []}
    run.label(pass_id)
    run.start_timing()
    try:
        network = zoo.load_topology(workload.topology)
        weights = inverse_capacity_weights(network)
        dags = dag_builder.build_dags(network, weights, augment=True)
        ecmp = ecmp_module.ecmp_routing(network, weights)
        base = bimodal_matrix(network, seed)
        base_routing = dag_flow.optimal_dag_routing(network, dags, base, name="Base")
    except Exception:
        run.stop_timing()
        for op in ops:
            run.fail(op, traceback.format_exc(limit=3))
        return
    for margin in workload.margins:
        oracle = None
        for scheme, routing in (("ECMP", ecmp), ("Base", base_routing)):
            op = f"audit:{scheme}@{margin:g}"
            try:
                if oracle is None:
                    run.label(f"{pass_id}/margin@{margin:g}")
                    oracle = worst_case.WorstCaseOracle(
                        network, margin_box(base, margin), dags=dags, config=SOLVER
                    )
                run.label(f"{pass_id}/{op}")
                ratios[scheme].append(oracle.evaluate(routing).ratio)
            except Exception:
                ratios[scheme].append(None)
                run.fail(op, traceback.format_exc(limit=3))
    run.label(pass_id)
    run.stop_timing()

    with run.untraced():
        for scheme, series in ratios.items():
            previous = None
            for margin, ratio in zip(workload.margins, series):
                op = f"audit:{scheme}@{margin:g}"
                if ratio is None:
                    continue
                if run.in_pool:
                    run.ratios.append(ratio)
                if ratio < RATIO_FLOOR:
                    run.fail(op, f"ratio {ratio!r} below 1")
                if previous is not None and ratio < previous * RATIO_FLOOR:
                    run.fail(op, f"ratio {ratio!r} fell below {previous!r} as the margin grew")
                previous = ratio
        if 1.0 in workload.margins:
            ratio = ratios["ECMP"][workload.margins.index(1.0)]
            expected = worst_case.evaluate_on_matrices(network, dags, ecmp, [base])
            if ratio is not None and abs(ratio - expected) > 1e-6 * max(1.0, expected):
                run.fail("audit:ECMP@1", f"ratio {ratio!r} != base-matrix ratio {expected!r}")


# -- measurement --------------------------------------------------------------


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path
) -> dict:
    """Run one measurement and return its result object."""
    run = Run(workload, tracer=Tracer() if trace else None)
    one_pass = audit_pass if workload.kind == "audit" else sweep_pass
    instances = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    patcher = install(run)
    start = time.perf_counter()
    run.references.append(reference_seconds())
    try:
        with tempfile.TemporaryDirectory(prefix="stores-", dir=out_dir) as scratch:
            index = 0
            while True:
                run.in_pool = index < workload.pool
                if not run.in_pool:
                    elapsed = time.perf_counter() - start
                    if trace or elapsed + statistics.median(run.walls) > seconds:
                        break
                one_pass(run, instances.randrange(2**31), f"pass-{index}", Path(scratch))
                index += 1
    finally:
        patcher.restore()

    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(run.walls),
        "pass_wall_s": run.walls,
        "pass_scaled_s": run.scaled,
        "reference_s": run.references,
        "scale": REFERENCE_SECONDS / run.references[0],  # for this child's set-up time
        "attempted": run.attempted,
        "failed": len(run.failed_ops),
        "problems": run.problems,
        "metrics": end_to_end(run),
    }
    if trace:
        layers = layer_table(run.tracer.spans)
        result["layers"] = layer_metrics(run, layers)
        (out_dir / "trace.json").write_text(json.dumps(chrome_trace(run.tracer.spans)))
        (out_dir / "layers.json").write_text(
            json.dumps({"spans": layers, "metrics": result["layers"]}, indent=2)
        )
    return result


def end_to_end(run: Run) -> dict[str, float]:
    """The end-to-end metrics; names follow ``BENCHMARK.json`` and ``metrics.py``."""
    metrics = {
        "wall_s": statistics.median(run.scaled),
        "raw_wall_s": statistics.median(run.walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ratio_gm": stats.geomean(run.ratios) if run.ratios else 0.0,
        "failed_frac": len(run.failed_ops) / run.attempted,
    }
    if run.solves:
        for column, key in (("COYOTE-obl", "ratio_obl"), ("COYOTE-pk", "ratio_pk")):
            ratios = [ratio for name, ratio, _ in run.solves if name == column]
            if ratios:
                metrics[key] = stats.geomean(ratios)
        metrics["converged_frac"] = sum(c for *_, c in run.solves) / len(run.solves)
    if run.stretches:
        metrics["stretch"] = statistics.fmean(run.stretches)
    return metrics


def _group_time(spans, prefix: str) -> float:
    """Time inside spans under ``prefix`` not nested in another such span."""
    inside = [span.name.startswith(prefix) for span in spans]
    return sum(
        span.duration
        for span, hit in zip(spans, inside)
        if hit and (span.parent is None or not inside[span.parent])
    )


def layer_metrics(run: Run, layers: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer totals over the pool, named as in ``BENCHMARK.json``."""
    spans = run.tracer.spans

    def calls(name: str) -> int:
        return int(layers.get(name, {}).get("calls", 0))

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    def self_time(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    counts = run.counts
    evaluations = counts["core.softmax_opt.evaluations"]
    wall = sum(run.walls)
    covered = sum(span.duration for span in spans if span.parent is None)
    edge_solves = sum(
        span.name == "lp.model.solve"
        and span.parent is not None
        and spans[span.parent].name == "lp.worst_case.evaluate"
        for span in spans
    )
    return {
        "core.softmax_opt.optimize_calls": calls("core.softmax_opt.optimize"),
        "core.softmax_opt.optimize_s": total("core.softmax_opt.optimize"),
        "core.softmax_opt.evaluations": evaluations,
        "core.softmax_opt.s_per_eval": (
            total("core.softmax_opt.optimize") / evaluations if evaluations else 0.0
        ),
        "core.softmax_opt.polish_calls": calls("core.softmax_opt.polish"),
        "core.softmax_opt.polish_s": total("core.softmax_opt.polish"),
        "core.softmax_opt.polish_evaluations": counts["core.softmax_opt.polish_evaluations"],
        "core.softmax_opt.share": _group_time(spans, "core.softmax_opt.") / wall,
        "lp.model.solve_calls": calls("lp.model.solve"),
        "lp.model.solve_s": total("lp.model.solve"),
        "lp.model.s_per_solve": (
            total("lp.model.solve") / calls("lp.model.solve") if calls("lp.model.solve") else 0.0
        ),
        "lp.model.compile_calls": calls("lp.model.compile"),
        "lp.model.compile_s": total("lp.model.compile"),
        "lp.worst_case.build_calls": calls("lp.worst_case.build"),
        "lp.worst_case.build_s": total("lp.worst_case.build"),
        "lp.worst_case.evaluate_calls": calls("lp.worst_case.evaluate"),
        "lp.worst_case.evaluate_self_s": self_time("lp.worst_case.evaluate"),
        "lp.worst_case.edge_solves": edge_solves,
        "lp.mcf.solve_calls": calls("lp.mcf.solve"),
        "lp.mcf.solve_s": total("lp.mcf.solve"),
        "lp.dag_flow.optimal_s": total("lp.dag_flow.optimal"),
        "lp.share": _group_time(spans, "lp.") / wall,
        "core.robust.calls": calls("core.robust.optimize"),
        "core.robust.self_s": self_time("core.robust.optimize"),
        "core.robust.rounds": counts["core.robust.rounds"],
        "core.robust.matrices": counts["core.robust.matrices"],
        "core.robust.converged": counts["core.robust.converged"],
        "core.robust.fallback_wins": counts["core.robust.fallback_wins"],
        "runner.sweep_s": total("runner.sweep"),
        "runner.self_s": self_time("runner.sweep"),
        "runner.store_gets": calls("runner.store_get"),
        "runner.store_puts": calls("runner.store_put"),
        "runner.store_s": total("runner.store_get") + total("runner.store_put"),
        "runner.warm_resweep_s": counts["runner.warm_resweep_s"],
        "runner.failed_events": counts["runner.failed_events"],
        "kernel.load_coefficients_calls": calls("kernel.load_coefficients"),
        "kernel.load_coefficients_s": total("kernel.load_coefficients"),
        "core.dag_builder.build_dags_s": total("core.dag_builder.build_dags"),
        "ecmp.routing_s": total("ecmp.routing"),
        "topologies.load_s": total("topologies.load"),
        "routing.stretch_s": total("routing.stretch"),
        "trace.wall_s": wall,
        "trace.overhead_frac": len(spans) * wrapper_cost() / wall,
        "trace.unattributed_s": wall - covered,
    }


def versions() -> dict[str, str]:
    """Library versions the child measured with (HiGHS as scipy vendors it)."""
    import numpy
    import scipy

    found = {"numpy": numpy.__version__, "scipy": scipy.__version__, "highs": "unknown"}
    try:
        from scipy.optimize._highspy import _core

        found["highs"] = ".".join(
            str(getattr(_core, f"HIGHS_VERSION_{part}")) for part in ("MAJOR", "MINOR", "PATCH")
        )
    except (ImportError, AttributeError):
        pass
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="directory for trace files")
    parser.add_argument(
        "--probe", action="store_true", help="report when set-up is done, then exit"
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    ready_at = time.monotonic()  # set-up ends here: imports done, workload chosen
    reference_seconds()  # the first call pays one-off initialisation
    if args.probe:
        print(json.dumps({"ready_at": ready_at, "scale": REFERENCE_SECONDS / reference_seconds()}))
        return 0
    result = measure(workload, args.seed, args.seconds, bool(args.trace), args.out)
    result["ready_at"] = ready_at
    result["versions"] = versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
