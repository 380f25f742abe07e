"""Command-line interface: run experiments, sweep grids, benchmark, inspect.

Examples:
    repro list
    repro run running-example
    repro run fig6 --full
    repro run table1 --csv /tmp/table1.csv --jobs 4
    repro sweep table1 --jobs 4 --out artifacts/
    repro sweep fig11 --full --jobs 8        # topology-parallel stretch
    repro sweep fig9 --cache-dir store --keep-going
    repro cache verify store && repro cache failures store
    repro bench fig6 --jobs 2                # emits BENCH_fig6.json
    repro bench all --out bench/             # every declared benchmark
    repro bench fig6 --baseline BENCH_fig6.json --fail-on-regress 20
    repro topo geant
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench.baseline import compare_to_baseline, load_baselines
from repro.bench.harness import run_benchmark, write_bench_result
from repro.bench.registry import BENCHMARKS, benchmark_names, get_benchmark
from repro.config import ExperimentConfig
from repro.exceptions import ReproError
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_spec,
    run_experiment,
    sweepable_experiment_ids,
)
from repro.runner.artifacts import write_artifacts
from repro.runner.executor import run_sweep
from repro.runner.faults import (
    DEFAULT_MAX_ATTEMPTS,
    FAULTS_ENV,
    FailurePolicy,
    parse_faults,
)
from repro.runner.store import DirStore, default_cache_dir, verify_store
from repro.topologies.zoo import available_topologies, load_topology, topology_info
from repro.utils.tables import format_csv, format_markdown


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The single ExperimentConfig source for a CLI invocation.

    ``--full`` selects the paper-scale config (margins *and* topology
    subsets, via ``config.full``); otherwise the environment decides.
    """
    return ExperimentConfig.paper() if args.full else ExperimentConfig.from_environment()


def _cache_from(args: argparse.Namespace, default_on: bool) -> DirStore | None:
    """The result store an invocation should use, if any.

    ``repro sweep`` caches by default (``default_on=True``); ``repro run``
    solves fresh unless ``--cache-dir`` opts in, so editing solver code and
    re-running the established command can never serve stale rows.
    """
    if args.no_cache:
        return None
    if args.cache_dir:
        return DirStore(args.cache_dir)
    return DirStore(default_cache_dir()) if default_on else None


def _write_csv(table, path: str | None) -> None:
    if not path:
        return
    with open(path, "w") as handle:
        handle.write(format_csv(table))
    print(f"CSV written to {path}")


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(eid) for eid in EXPERIMENTS)
    sweepable = set(sweepable_experiment_ids())
    for experiment in EXPERIMENTS.values():
        tag = " [sweep]" if experiment.id in sweepable else ""
        print(f"{experiment.id:<{width}}  {experiment.description}{tag}")
    return 0


def _failure_policy(args: argparse.Namespace) -> FailurePolicy:
    """The retry/timeout/quarantine policy a CLI invocation selected."""
    if args.jobs == 1 and args.cell_timeout:
        print(
            "note: --cell-timeout is enforced only with --jobs > 1; a serial "
            "run has no worker to kill",
            file=sys.stderr,
        )
    return FailurePolicy(
        max_attempts=args.max_attempts,
        max_failures=args.max_failures,
        keep_going=args.keep_going,
        cell_timeout=args.cell_timeout,
    )


def _apply_faults(args: argparse.Namespace) -> None:
    """Resolve --inject-fault into the environment the fault layer reads.

    Flag specs are appended to any pre-existing ``$REPRO_FAULTS`` (so a
    CI job can set a base plan and a step can add to it), validated up
    front so a bad grammar fails before any cell solves, and exported so
    sweep worker processes inherit the plan.
    """
    injected = getattr(args, "inject_fault", None)
    if not injected:
        return
    parts = [os.environ.get(FAULTS_ENV, "")] + list(injected)
    plan = ";".join(part for part in parts if part)
    parse_faults(plan)  # fail fast on a bad spec
    os.environ[FAULTS_ENV] = plan


def _cmd_run(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    experiment = EXPERIMENTS[args.experiment]
    started = time.perf_counter()
    if experiment.grid is not None:
        report = run_sweep(
            experiment.grid(config),
            jobs=args.jobs,
            cache=_cache_from(args, default_on=False),
            failures=_failure_policy(args),
        )
        table = report.table()
        summary = f" [{report.summary()}]"
        if report.cached:
            # The cache keys hash config, not code: after editing solver code,
            # cached rows are stale until CACHE_VERSION is bumped.
            print(
                f"note: {report.cached} of {len(report.results)} cells served from "
                "the result cache; pass --no-cache to re-solve",
                file=sys.stderr,
            )
    else:
        if args.jobs > 1 or args.cache_dir or args.no_cache:
            print(
                f"note: {args.experiment} has no cell grid; --jobs/--cache-dir "
                "apply only to sweepable experiments (see `repro list`)",
                file=sys.stderr,
            )
        table = run_experiment(args.experiment, config)
        summary = ""
    elapsed = time.perf_counter() - started
    print(format_markdown(table))
    print(f"(completed in {elapsed:.1f}s){summary}")
    _write_csv(table, args.csv)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    spec = experiment_spec(args.experiment, config)
    try:
        report = run_sweep(
            spec,
            jobs=args.jobs,
            cache=_cache_from(args, default_on=True),
            failures=_failure_policy(args),
        )
    except BaseException as error:
        # An aborted sweep still resolved cells and logged lifecycle
        # events; flush them so the failure is triageable from artifacts.
        partial = getattr(error, "partial_report", None)
        if partial is not None and args.out:
            for path in write_artifacts(partial, args.out):
                print(f"partial artifact written to {path}", file=sys.stderr)
        raise
    table = report.table()
    print(format_markdown(table))
    if report.quarantined:
        print(
            f"warning: {report.quarantined} cell(s) quarantined after repeated "
            "failures; their rows are omitted (triage: `repro cache failures`)",
            file=sys.stderr,
        )
    print(report.summary())
    if args.out:
        for path in write_artifacts(report, args.out):
            print(f"artifact written to {path}")
    _write_csv(table, args.csv)
    # Exit 3 = "ran to completion, but some cells are quarantined": distinct
    # from 0 (clean) and 1 (hard error) so CI and scripts can branch on it.
    return 3 if report.quarantined else 0


def _cache_targets(paths: list[str]) -> list[DirStore]:
    """The stores a ``repro cache`` command names; each must exist.

    A missing directory is an error, not an empty store, so a mistyped
    path cannot pass a check by having nothing to check.
    """
    stores = [DirStore(path) for path in (paths or [default_cache_dir()])]
    for store in stores:
        if not store.root.is_dir():
            raise ReproError(f"no result store at {store.root}")
    return stores


def _cmd_cache_failures(args: argparse.Namespace) -> int:
    """List (or clear) the persisted failure records of each store."""
    for store in _cache_targets(args.stores):
        if args.clear:
            cleared = store.clear_failures()
            print(f"{store.describe()}: cleared {cleared} failure record(s)")
            continue
        records = sorted(store.failure_records(), key=lambda item: item[0])
        print(f"{store.describe()}: {len(records)} failure record(s)")
        for key, payload in records:
            print(
                f"  {key}  {payload.get('error_class', '?'):<13} "
                f"attempts={payload.get('attempts', '?')}  "
                f"{payload.get('error_type', '?')}: {payload.get('message', '')}"
            )
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    failed = False
    for store in _cache_targets(args.stores):
        report = verify_store(store)
        print(f"{store.describe()}: {report.summary()}")
        for key, reason in report.problems:
            print(f"  {key}: {reason}", file=sys.stderr)
        failed = failed or not report.ok
    return 1 if failed else 0


def _resolve_benchmark_names(requested: list[str]) -> list[str]:
    """Expand "all" and validate names (order preserved, no duplicates)."""
    if "all" in requested:
        return benchmark_names()
    names: list[str] = []
    for name in requested:
        get_benchmark(name)  # raises ExperimentError for unknown names
        if name not in names:
            names.append(name)
    return names


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.list:
        config = _experiment_config(args)
        width = max(len(name) for name in BENCHMARKS)
        for benchmark in BENCHMARKS.values():
            print(f"{benchmark.name:<{width}}  {benchmark.description}")
            print(f"{'':<{width}}  grid: {benchmark.grid_summary(config)}")
        return 0
    if not args.benchmarks:
        print("error: name at least one benchmark (or 'all'; see --list)", file=sys.stderr)
        return 1
    config = _experiment_config(args)
    # Benchmarks measure solve cost, so they never cache by default;
    # --cache-dir opts in (CI's warm self-compare leg uses this).
    cache = _cache_from(args, default_on=False)
    # Loaded before any benchmark runs: a bad path fails fast, and an
    # --out that overlaps the baseline directory can't clobber the
    # reference timings before they are read.
    baselines = load_baselines(args.baseline) if args.baseline is not None else None
    payloads = []
    for name in _resolve_benchmark_names(args.benchmarks):
        result = run_benchmark(
            name,
            config,
            jobs=args.jobs,
            cache=cache,
            failures=_failure_policy(args),
        )
        path = write_bench_result(result, args.out)
        print(f"{result.summary()} -> {path}")
        payloads.append(result.payload())
    if baselines is None:
        return 0
    failed = False
    for payload in payloads:
        comparison = compare_to_baseline(payload, baselines, args.fail_on_regress)
        print(comparison.message)
        failed = failed or comparison.failed
    return 1 if failed else 0


def _cmd_topo(args: argparse.Namespace) -> int:
    if args.name is None:
        for name in available_topologies():
            spec = topology_info(name)
            print(f"{name:<14} {spec.kind:<10} {spec.nodes:>3} nodes "
                  f"{spec.links:>3} links  [{spec.paper_label}]")
        return 0
    spec = topology_info(args.name)
    network = load_topology(args.name)
    print(f"name:        {spec.name}")
    print(f"paper label: {spec.paper_label}")
    print(f"kind:        {spec.kind}")
    print(f"nodes:       {network.num_nodes}")
    print(f"links:       {network.num_edges // 2} undirected "
          f"({network.num_edges} directed)")
    print(f"note:        {spec.note}")
    return 0


def _positive_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _non_negative_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def _non_negative_float(value: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}") from None
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for sweep cells (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH",
        help="result store directory ($REPRO_CACHE_DIR, $XDG_CACHE_HOME/repro, "
        "or ~/.cache/repro; `sweep` caches by default, `run` only when this "
        "flag is given)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="solve every cell even if a cached result exists",
    )
    parser.add_argument(
        "--cell-timeout", type=_non_negative_float, default=None, metavar="SECONDS",
        help="wall-clock budget per cell, enforced by a watchdog in parallel "
        "runs (default: the cell kind's own budget; 0 disables)",
    )
    parser.add_argument(
        "--max-attempts", type=_positive_int, default=DEFAULT_MAX_ATTEMPTS, metavar="N",
        help="attempts per cell before quarantining it (transient errors "
        f"retry with backoff; default: {DEFAULT_MAX_ATTEMPTS})",
    )
    parser.add_argument(
        "--max-failures", type=_non_negative_int, default=0, metavar="N",
        help="tolerate up to N quarantined cells before aborting the sweep "
        "(default: 0 -- the first quarantine aborts)",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="never abort on quarantined cells: skip their rows, persist "
        "their failure records, and exit 3 if any (docs/campaigns.md)",
    )
    parser.add_argument(
        "--inject-fault", metavar="SPEC", action="append",
        help="deterministic fault injection for testing the failure domain, "
        "e.g. 'site=solve,action=raise,exc=OSError,times=1' (repeatable; "
        f"appended to ${FAULTS_ENV}; see docs/campaigns.md)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COYOTE (CoNEXT 2016) reproduction: experiments and topologies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS), metavar="EXPERIMENT")
    run.add_argument("--full", action="store_true", help="use the paper-scale grid")
    run.add_argument("--csv", metavar="PATH", help="also write the table as CSV")
    _add_runner_flags(run)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep",
        help="run a grid experiment (fig6-fig11, table1) through the parallel "
        "sweep runner",
    )
    sweep.add_argument(
        "experiment", choices=sorted(sweepable_experiment_ids()), metavar="EXPERIMENT"
    )
    sweep.add_argument("--full", action="store_true", help="use the paper-scale grid")
    sweep.add_argument("--csv", metavar="PATH", help="also write the table as CSV")
    sweep.add_argument(
        "--out", metavar="DIR",
        help="write JSON artifacts (table + per-cell results + lifecycle events)",
    )
    _add_runner_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    cache = sub.add_parser(
        "cache", help="verify result stores and triage failures (docs/campaigns.md)"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    verify = cache_sub.add_parser(
        "verify", help="re-hash every entry's fingerprint against its filename"
    )
    verify.add_argument(
        "stores", nargs="*", metavar="DIR",
        help="store roots (default: the default cache directory)",
    )
    verify.set_defaults(func=_cmd_cache_verify)
    failures = cache_sub.add_parser(
        "failures",
        help="list quarantined cells' persisted failure records (--clear re-arms them)",
    )
    failures.add_argument(
        "stores", nargs="*", metavar="DIR",
        help="store roots (default: the default cache directory)",
    )
    failures.add_argument(
        "--clear", action="store_true",
        help="delete every failure record so the cells are re-attempted",
    )
    failures.set_defaults(func=_cmd_cache_failures)

    bench = sub.add_parser(
        "bench",
        help="time declared benchmarks through the sweep runner and emit "
        "BENCH_<name>.json; with --baseline, gate on wall-clock regressions",
    )
    bench.add_argument(
        "benchmarks", nargs="*", metavar="BENCHMARK",
        help="benchmark names (or 'all'); see --list",
    )
    bench.add_argument(
        "--list", action="store_true", help="list declared benchmarks and their grids"
    )
    bench.add_argument("--full", action="store_true", help="use the paper-scale grid")
    bench.add_argument(
        "--out", metavar="DIR", default=".",
        help="directory for BENCH_<name>.json results (default: current directory)",
    )
    bench.add_argument(
        "--baseline", metavar="PATH",
        help="BENCH_*.json file or directory of them to compare wall-clock against",
    )
    bench.add_argument(
        "--fail-on-regress", type=_non_negative_float, default=10.0, metavar="PCT",
        help="with --baseline: exit non-zero when wall-clock regresses more than "
        "PCT percent (default: 10)",
    )
    _add_runner_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    topo = sub.add_parser("topo", help="list topologies or show one")
    topo.add_argument("name", nargs="?", help="topology name (omit to list all)")
    topo.set_defaults(func=_cmd_topo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_faults(args)
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
