#!/usr/bin/env python3
"""Run the COYOTE benchmark, one workload at a time in fresh child processes.

One measurement, the form ``BENCHMARK.json`` declares::

    python3 perf/run.py --workload margin --seed 7 --seconds 30 --trace 0

prints each metric with its unit, then one JSON object as the last line
of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer ones (and writes ``trace.json`` and ``layers.json``).

A summary of repeated runs, for ``perf/compare.py``::

    python3 perf/run.py --repeat 3 [--trace 1] [--workload W ...] [--out FILE]

runs every workload ``--repeat`` times, interleaved, at one seed, and
writes the median, quartiles, extremes and samples of every metric,
with an environment block, to ``perf/results/`` (or ``--out``).

Each measurement runs ``perf/workloads.py`` in a child process with
``PYTHONPATH=src``, one thread per numeric library, a fixed hash seed
and every ``REPRO_*`` variable removed, so results do not depend on the
caller's environment.  ``setup_s`` is the time from spawning a child to
its first workload call, the median over several spawns.  Times are in
reference seconds, scaled by a fixed computation timed next to them
(``perf/reference.py``); raw seconds are reported beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics as declared
import stats

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
RESULTS = PERF / "results"
DEFAULT_SEED = 20161101

#: Spawns per measurement that time set-up: probes plus the measuring child.
SETUP_SAMPLES = 5

#: Every child gets these: serial numeric libraries (the solver is serial
#: and concurrent threads only add noise) and a fixed hash seed.
CHILD_SETTINGS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: A measurement may overrun ``--seconds`` by at most this much.
GRACE_SECONDS = 140.0


class BenchmarkError(RuntimeError):
    """A measurement could not produce a result."""


def child_environment() -> tuple[dict[str, str], dict[str, str]]:
    """The children's environment, and the ``REPRO_*`` variables removed from it."""
    removed = {name: value for name, value in os.environ.items() if name.startswith("REPRO_")}
    env = {name: value for name, value in os.environ.items() if name not in removed}
    env.update(CHILD_SETTINGS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, removed


def spawn(argv: list[str], env: dict[str, str], deadline: float) -> tuple[float, dict]:
    """Run one child to completion; its set-up time and its JSON result."""
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(PERF / "workloads.py"), *argv],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"workload child timed out: {' '.join(argv)}") from error
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchmarkError(f"workload child exited {done.returncode}: {' '.join(argv)}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["ready_at"] - spawned_at, result


def measure(
    workload: str, seed: int, seconds: float, trace: bool, env: dict[str, str],
    removed: dict[str, str],
) -> dict:
    """One measurement: set-up probes, then the measuring child.

    The result, with its environment block, is also written to
    ``result.json`` in the measurement's directory under ``results/``.
    """
    out = RESULTS / f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-{workload}-s{seed}-t{int(trace)}"
    out.mkdir(parents=True, exist_ok=True)
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--out", str(out)]
    deadline = time.monotonic() + seconds + GRACE_SECONDS
    probes = [] if trace else [
        spawn([*argv, "--probe"], env, deadline) for _ in range(SETUP_SAMPLES - 1)
    ]
    setup, result = spawn(argv, env, deadline)
    samples = [(raw, child["scale"]) for raw, child in [*probes, (setup, result)]]
    result["setup_samples"] = samples
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(raw * scale for raw, scale in samples)
        result["metrics"]["raw_setup_s"] = statistics.median(raw for raw, _ in samples)
    result["environment"] = environment(removed, result.pop("versions"))
    (out / "result.json").write_text(json.dumps(result, indent=2))
    return result


def environment(removed: dict[str, str], versions: dict[str, str]) -> dict:
    """Where and with what a result was measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        **git_state(),
        "repro_variables_removed": removed,
        "child_settings": CHILD_SETTINGS,
    }


def git_state() -> dict:
    """Commit and dirty flag of the checkout, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def one_run(args: argparse.Namespace, bench: dict) -> int:
    """The ``BENCHMARK.json`` command: one measurement, one JSON line."""
    result = measure(args.workload[0], args.seed, args.seconds, bool(args.trace),
                     *child_environment())
    entries = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = result["layers"] if args.trace else result["metrics"]
    reported = {
        entry["name"]: {"value": source[entry["name"]], "unit": entry["unit"]}
        for entry in entries
    }
    for name, metric in reported.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": reported,
    }))
    return 0


def suite(args: argparse.Namespace, bench: dict) -> int:
    """``--repeat N`` interleaved runs of every workload, summarised to a file."""
    env, removed = child_environment()
    units = {name: entry["unit"] for name, entry in declared.end_to_end(ROOT).items()}
    units.update({entry["name"]: entry["unit"] for entry in bench["per_layer"]})
    workloads = args.workload or [entry["name"] for entry in bench["workloads"]]
    samples: dict[str, dict[str, list[float]]] = {name: {} for name in workloads}
    layers: dict[str, dict[str, float]] = {}
    totals = {name: {"attempted": 0, "failed": 0, "problems": []} for name in workloads}
    environment_block = None
    for round_index in range(args.repeat):
        order = workloads if round_index % 2 == 0 else workloads[::-1]
        for name in order:
            result = measure(name, args.seed, args.seconds, False, env, removed)
            environment_block = result["environment"]
            for metric, value in result["metrics"].items():
                samples[name].setdefault(metric, []).append(value)
            for key in ("attempted", "failed"):
                totals[name][key] += result[key]
            totals[name]["problems"] += result["problems"]
            print(f"round {round_index + 1}/{args.repeat} {name}: "
                  f"wall_s {result['metrics']['wall_s']:.4g}, failed {result['failed']}",
                  file=sys.stderr)
    if args.trace:
        for name in workloads:
            layers[name] = measure(name, args.seed, args.seconds, True, env, removed)["layers"]
    summary = {
        "schema": "perf-summary-v1",
        "environment": environment_block,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "workloads": {
            name: {
                **totals[name],
                "metrics": {
                    metric: {"unit": units.get(metric, ""), **stats.summary(values)}
                    for metric, values in samples[name].items()
                },
                **({"layers": layers[name]} if name in layers else {}),
            }
            for name in workloads
        },
    }
    out = args.out or RESULTS / f"summary-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    for name, block in summary["workloads"].items():
        print(f"\n{name}: {block['attempted']} operations, {block['failed']} failed")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}{'max':>12}  n  unit")
        for metric, row in block["metrics"].items():
            print(f"  {metric:<16}" + "".join(f"{row[key]:>12.5g}" for key in
                  ("median", "q1", "q3", "min", "max")) + f"  {row['n']}  {row['unit']}")
    print(f"\nsummary written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="workload name (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, help="summarise N interleaved rounds")
    parser.add_argument("--out", type=Path, help="summary file (with --repeat)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    bench = declared.benchmark(ROOT)
    names = {entry["name"] for entry in bench["workloads"]}
    unknown = sorted(set(args.workload or ()) - names)
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(names)}")
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    try:
        if args.repeat is not None:
            if args.repeat < 1:
                parser.error("--repeat must be at least 1")
            return suite(args, bench)
        if not args.workload or len(args.workload) != 1:
            parser.error("give exactly one --workload, or --repeat N")
        return one_run(args, bench)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
