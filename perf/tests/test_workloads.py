"""Tiny-topology workload runs: metrics named as declared, checks, restoration."""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import metrics
import run
import workloads
from repro.core import robust, softmax_opt
from repro.experiments import common
from repro.lp import model, worst_case

BENCH = metrics.benchmark()
END_TO_END = {entry["name"] for entry in BENCH["end_to_end"]} - {"setup_s"}
PER_LAYER = {entry["name"] for entry in BENCH["per_layer"]}


def tiny(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], topology="gambia", pool=1)


def test_benchmark_names_the_workloads_defined_here():
    assert [entry["name"] for entry in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["oblivious", "margin", "audit"])
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = workloads.measure(tiny(name), 7, 0.0, False, tmp_path)
    assert result["failed"] == 0, result["problems"]
    ops = {"oblivious": 1, "margin": 2, "audit": 10}[name]
    assert result["attempted"] == ops and result["passes"] == 1
    assert END_TO_END <= result["metrics"].keys()
    assert all(result["metrics"][metric] > 0 for metric in END_TO_END)
    assert result["metrics"]["failed_frac"] == 0.0


def test_runs_repeat_for_a_seed_and_change_with_it(tmp_path):
    first = workloads.measure(tiny("audit"), 7, 0.0, False, tmp_path)
    again = workloads.measure(tiny("audit"), 7, 0.0, False, tmp_path)
    other = workloads.measure(tiny("audit"), 8, 0.0, False, tmp_path)
    assert first["metrics"]["ratio_gm"] == again["metrics"]["ratio_gm"]
    assert first["metrics"]["ratio_gm"] != other["metrics"]["ratio_gm"]


def test_traced_run_reports_every_layer_and_restores_the_program(tmp_path):
    originals = {
        "robust": robust.optimize_robust_splitting,
        "common": common.optimize_robust_splitting,
        "softmax": softmax_opt.optimize_splitting_softmax,
        "solve": model.ReusableLP.__dict__["solve"],
        "evaluate": worst_case.WorstCaseOracle.__dict__["evaluate"],
    }
    result = workloads.measure(tiny("margin"), 7, 0.0, True, tmp_path)
    assert result["failed"] == 0, result["problems"]
    layers = result["layers"]
    assert PER_LAYER <= layers.keys()
    assert layers["core.robust.calls"] == 3  # one oblivious solve + one per margin
    assert layers["lp.model.solve_calls"] > 0
    assert layers["trace.unattributed_s"] < 0.05 * layers["trace.wall_s"]
    assert json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert "spans" in json.loads((tmp_path / "layers.json").read_text())
    assert {
        "robust": robust.optimize_robust_splitting,
        "common": common.optimize_robust_splitting,
        "softmax": softmax_opt.optimize_splitting_softmax,
        "solve": model.ReusableLP.__dict__["solve"],
        "evaluate": worst_case.WorstCaseOracle.__dict__["evaluate"],
    } == originals


def test_traced_audit_makes_no_softmax_call(tmp_path):
    layers = workloads.measure(tiny("audit"), 7, 0.0, True, tmp_path)["layers"]
    assert layers["core.softmax_opt.optimize_calls"] == 0
    assert layers["lp.worst_case.evaluate_calls"] == 10
    assert layers["lp.share"] > 0.5


def test_failed_check_counts_one_operation(tmp_path, monkeypatch):
    # A routing whose worst case "falls" as the margin grows breaks the
    # monotonicity check at exactly the operations where it falls.
    real = worst_case.WorstCaseOracle.evaluate
    calls = iter(range(1000))

    def shrinking(self, routing, *args, **kwargs):
        result = real(self, routing, *args, **kwargs)
        index = next(calls)
        if routing.name == "Base" and index == 3:  # Base at the second margin
            result.ratio = 0.5
        return result

    monkeypatch.setattr(worst_case.WorstCaseOracle, "evaluate", shrinking)
    result = workloads.measure(tiny("audit"), 7, 0.0, False, tmp_path)
    assert result["failed"] == 1
    assert any("below 1" in problem for problem in result["problems"])


def test_child_environment_drops_repro_variables(monkeypatch):
    monkeypatch.setenv("REPRO_LP_BACKEND", "scipy")
    env, removed = run.child_environment()
    assert removed["REPRO_LP_BACKEND"] == "scipy"
    assert not any(name.startswith("REPRO_") for name in env)
    assert env["PYTHONPATH"] == str(run.ROOT / "src") and env["PYTHONHASHSEED"] == "0"


def test_child_probe_reports_setup(tmp_path):
    env, _ = run.child_environment()
    setup, result = run.spawn(
        ["--workload", "audit", "--seed", "1", "--seconds", "0", "--out", str(tmp_path),
         "--probe"],
        env, deadline=time.monotonic() + 120,
    )
    assert 0 < setup < 60 and "ready_at" in result


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("results"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
