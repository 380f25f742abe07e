"""Tests for the benchmark harness, baseline gate, and ``repro bench`` CLI.

A stub cell kind + stub benchmark keep these fast: the harness, payload
schema, baseline comparison, and CLI wiring are exercised for real (the
``--jobs 2`` tests really fork workers), only the solver work is fake.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import replace

import pytest

from repro.bench.baseline import (
    BaselineError,
    compare_to_baseline,
    load_baselines,
)
from repro.bench.harness import (
    BENCH_SCHEMA,
    bench_path,
    run_benchmark,
    spec_fingerprint,
    write_bench_result,
)
from repro.bench.registry import BENCHMARKS, Benchmark, benchmark_names, get_benchmark
from repro.cli import main
from repro.config import ExperimentConfig, SolverConfig
from repro.exceptions import ExperimentError
from repro.runner.store import DirStore
from repro.runner.spec import CellKind, SweepCell, SweepSpec, register_cell_kind
from repro.runner.timing import phase

TINY_SOLVER = SolverConfig(max_adversarial_rounds=2, max_inner_iterations=10)
TINY_CONFIG = ExperimentConfig(margins=(1.0, 2.0, 3.0), solver=TINY_SOLVER)

STUB_COLUMNS = ("alpha", "beta")


def _stub_bench_solve(cell: SweepCell) -> dict[str, float]:
    """Deterministic fake solver recording all three phases.

    The short sleep dominates the cell's wall-clock, so percentage-based
    baseline comparisons in these tests measure a stable quantity instead
    of sub-millisecond interpreter noise.
    """
    with phase("setup"):
        pass
    with phase("solve"):
        time.sleep(0.002)
        result = {"alpha": cell.margin, "beta": cell.margin + 1.0}
    with phase("evaluate"):
        pass
    return result


STUB_KIND = register_cell_kind(
    CellKind(name="stub-bench", solve=_stub_bench_solve, columns=STUB_COLUMNS)
)


def _stub_spec(config: ExperimentConfig) -> SweepSpec:
    cells = tuple(
        SweepCell(
            experiment="stub-bench",
            topology="abilene",
            demand_model="gravity",
            margin=margin,
            seed=config.seed,
            solver=config.solver,
            kind=STUB_KIND.name,
        )
        for margin in config.margins
    )
    return SweepSpec(experiment="stub-bench", title="stub bench", cells=cells)


STUB_BENCH = Benchmark(
    name="stub-bench",
    experiment="stub-bench",
    description="deterministic stub workload",
    spec=_stub_spec,
)


@pytest.fixture
def stub_registered(monkeypatch):
    monkeypatch.setitem(BENCHMARKS, STUB_BENCH.name, STUB_BENCH)
    return STUB_BENCH


class TestRegistry:
    def test_declared_benchmarks(self):
        assert set(benchmark_names()) == {
            "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table1",
            "running-example", "fig12", "kernel-spf", "kernel-propagate",
            "lp-assemble", "lp-oracle-sweep",
        }

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ExperimentError, match="unknown benchmark"):
            get_benchmark("no-such-bench")

    def test_every_spec_builds(self):
        # Spec building is cheap (registry metadata only) even though
        # solving is not; every declared grid must at least assemble.
        config = ExperimentConfig(margins=(1.0,), solver=TINY_SOLVER)
        for name in benchmark_names():
            spec = BENCHMARKS[name].spec(config)
            assert spec.cells, name
            assert spec.resolved_value_columns(), name

    def test_grid_summary_mentions_cells_and_schemes(self):
        summary = get_benchmark("fig6").grid_summary(TINY_CONFIG)
        assert "3 cells" in summary and "COYOTE-pk" in summary

    def test_driver_spec_full_flag_is_fingerprinted(self):
        from repro.experiments.registry import driver_spec

        reduced = driver_spec("running-example", select=("A",), config=TINY_CONFIG)
        full = driver_spec(
            "running-example", select=("A",), config=replace(TINY_CONFIG, full=True)
        )
        assert reduced.cells[0].params_dict()["full"] is False
        assert full.cells[0].params_dict()["full"] is True
        # Reduced and paper-scale runs must never share a cache entry,
        # a baseline, or a fingerprint.
        assert spec_fingerprint(reduced) != spec_fingerprint(full)

    def test_driver_cell_forwards_full_to_the_driver(self, monkeypatch):
        from repro.experiments import registry as exp_registry
        from repro.utils.tables import Table

        seen = {}

        def fake_driver(config=None):
            seen["full"] = config.full
            table = Table("fake", ["scheme", "measured"])
            table.add_row("A", 1.0)
            return table

        monkeypatch.setitem(
            exp_registry.EXPERIMENTS,
            "fake-driver",
            exp_registry.Experiment("fake-driver", "fake", fake_driver),
        )
        spec = exp_registry.driver_spec(
            "fake-driver", select=("A",), config=replace(TINY_CONFIG, full=True)
        )
        assert exp_registry.solve_driver_cell(spec.cells[0]) == {"A": 1.0}
        assert seen["full"] is True


class TestHarness:
    def test_payload_schema(self, stub_registered):
        result = run_benchmark("stub-bench", TINY_CONFIG)
        payload = result.payload()
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["benchmark"] == "stub-bench"
        assert payload["experiment"] == "stub-bench"
        assert payload["cache_version"] == "runner-v5"
        assert payload["jobs"] == 1 and payload["full"] is False
        assert payload["wall_clock_seconds"] >= 0
        assert payload["cache"] == {"hits": 0, "misses": 3}
        assert len(payload["cells"]) == 3
        for cell in payload["cells"]:
            assert not cell["cached"]
            assert set(cell["timings"]) == {"setup", "solve", "evaluate", "total"}
        for name in ("setup", "solve", "evaluate", "total"):
            assert name in payload["phase_totals"]
        assert payload["table"]["columns"] == ["margin", "alpha", "beta"]
        assert payload["table"]["rows"] == [[1.0, 1.0, 2.0], [2.0, 2.0, 3.0], [3.0, 3.0, 4.0]]

    def test_cache_counters_and_empty_timings_on_hits(self, stub_registered, tmp_path):
        cache = DirStore(tmp_path / "cache")
        run_benchmark("stub-bench", TINY_CONFIG, cache=cache)
        warm = run_benchmark("stub-bench", TINY_CONFIG, cache=cache).payload()
        assert warm["cache"] == {"hits": 3, "misses": 0}
        assert all(cell["cached"] and cell["timings"] == {} for cell in warm["cells"])
        assert warm["phase_totals"] == {}

    def test_config_fingerprint_tracks_the_grid(self, stub_registered):
        base = spec_fingerprint(_stub_spec(TINY_CONFIG))
        assert base == spec_fingerprint(_stub_spec(TINY_CONFIG))  # stable
        tweaked_solver = replace(TINY_CONFIG, solver=replace(TINY_SOLVER, seed=1))
        assert spec_fingerprint(_stub_spec(tweaked_solver)) != base
        fewer_margins = replace(TINY_CONFIG, margins=(1.0,))
        assert spec_fingerprint(_stub_spec(fewer_margins)) != base

    def test_write_bench_result_path(self, stub_registered, tmp_path):
        result = run_benchmark("stub-bench", TINY_CONFIG)
        path = write_bench_result(result, tmp_path)
        assert path == bench_path(tmp_path, "stub-bench")
        assert path.name == "BENCH_stub-bench.json"
        assert json.loads(path.read_text())["benchmark"] == "stub-bench"


class TestBaseline:
    def _payload(self, stub) -> dict:
        return run_benchmark(stub, TINY_CONFIG).payload()

    def test_self_compare_is_zero_regression(self, stub_registered):
        payload = self._payload(stub_registered)
        comparison = compare_to_baseline(payload, {"stub-bench": payload}, 0.0)
        assert comparison.status == "ok" and not comparison.failed
        assert "+0.0%" in comparison.message

    def test_regression_past_threshold_fails(self, stub_registered):
        payload = self._payload(stub_registered)
        baseline = copy.deepcopy(payload)
        baseline["wall_clock_seconds"] = payload["wall_clock_seconds"] / 2.0
        comparison = compare_to_baseline(payload, {"stub-bench": baseline}, 20.0)
        assert comparison.status == "regression" and comparison.failed
        assert "REGRESSION" in comparison.message

    def test_speedup_and_within_threshold_pass(self, stub_registered):
        payload = self._payload(stub_registered)
        slower = copy.deepcopy(payload)
        slower["wall_clock_seconds"] = payload["wall_clock_seconds"] * 2.0
        assert not compare_to_baseline(payload, {"stub-bench": slower}, 20.0).failed
        slightly_faster = copy.deepcopy(payload)
        slightly_faster["wall_clock_seconds"] = payload["wall_clock_seconds"] / 1.1
        assert not compare_to_baseline(
            payload, {"stub-bench": slightly_faster}, 20.0
        ).failed

    def test_fingerprint_mismatch_fails(self, stub_registered):
        payload = self._payload(stub_registered)
        baseline = copy.deepcopy(payload)
        baseline["config_fingerprint"] = "0" * 32
        comparison = compare_to_baseline(payload, {"stub-bench": baseline}, 50.0)
        assert comparison.status == "incomparable" and comparison.failed
        assert "re-record" in comparison.message

    def test_warm_baseline_rejected(self, stub_registered, tmp_path):
        # A baseline recorded off the cache has near-zero wall-clock and
        # would flag every honest cold run as a regression; refuse it.
        cache = DirStore(tmp_path / "cache")
        run_benchmark(stub_registered, TINY_CONFIG, cache=cache)
        warm = run_benchmark(stub_registered, TINY_CONFIG, cache=cache).payload()
        cold = self._payload(stub_registered)
        comparison = compare_to_baseline(cold, {"stub-bench": warm}, 50.0)
        assert comparison.status == "incomparable" and comparison.failed
        assert "re-record it uncached" in comparison.message

    def test_profiled_baseline_rejected(self, stub_registered):
        # Profiler overhead inflates the baseline's wall-clock, which
        # would let real regressions slide under the threshold.
        profiled = run_benchmark(stub_registered, TINY_CONFIG, profile=True).payload()
        cold = self._payload(stub_registered)
        comparison = compare_to_baseline(cold, {"stub-bench": profiled}, 50.0)
        assert comparison.status == "incomparable" and comparison.failed
        assert "re-record it unprofiled" in comparison.message

    def test_profiled_current_run_rejected(self, stub_registered):
        # Symmetric: a --profile run's inflated wall-clock must not gate
        # against an honest baseline (spurious regression verdicts).
        profiled = run_benchmark(stub_registered, TINY_CONFIG, profile=True).payload()
        cold = self._payload(stub_registered)
        comparison = compare_to_baseline(profiled, {"stub-bench": cold}, 50.0)
        assert comparison.status == "incomparable" and comparison.failed
        assert "re-run without --profile" in comparison.message

    def test_warm_current_run_gates_with_note(self, stub_registered, tmp_path):
        # CI's warm self-compare leg: a cache-served current run still
        # gates against a cold baseline, but says what it didn't re-time.
        cold = self._payload(stub_registered)
        cache = DirStore(tmp_path / "cache")
        run_benchmark(stub_registered, TINY_CONFIG, cache=cache)
        warm = run_benchmark(stub_registered, TINY_CONFIG, cache=cache).payload()
        # Huge threshold: this asserts the note and pass/fail plumbing,
        # not sub-millisecond stub timing noise.
        comparison = compare_to_baseline(warm, {"stub-bench": cold}, 1e9)
        assert not comparison.failed
        assert "cache-served" in comparison.message

    def test_missing_baseline_entry_does_not_fail(self, stub_registered):
        payload = self._payload(stub_registered)
        comparison = compare_to_baseline(payload, {}, 10.0)
        assert comparison.status == "missing-baseline" and not comparison.failed

    def test_load_baselines_file_and_directory(self, stub_registered, tmp_path):
        result = run_benchmark(stub_registered, TINY_CONFIG)
        path = write_bench_result(result, tmp_path)
        assert set(load_baselines(path)) == {"stub-bench"}
        assert set(load_baselines(tmp_path)) == {"stub-bench"}

    def test_load_baselines_errors(self, tmp_path):
        with pytest.raises(BaselineError, match="does not exist"):
            load_baselines(tmp_path / "nope")
        (tmp_path / "empty").mkdir()
        with pytest.raises(BaselineError, match="no BENCH_"):
            load_baselines(tmp_path / "empty")
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("not json{")
        with pytest.raises(BaselineError, match="cannot read"):
            load_baselines(bad)
        not_bench = tmp_path / "BENCH_odd.json"
        not_bench.write_text("{}")
        with pytest.raises(BaselineError, match="not a bench payload"):
            load_baselines(not_bench)


def _strip_timing_fields(payload: dict) -> dict:
    """Everything in a payload except the fields expected to vary per run."""
    clone = copy.deepcopy(payload)
    clone.pop("wall_clock_seconds")
    clone.pop("phase_totals")
    clone.pop("jobs")
    # The lifecycle event log carries epoch timestamps in completion
    # order, so it varies per run like the other wall-clock fields; the
    # deterministic "lifecycle" counts stay in the comparison.
    clone.pop("events")
    for cell in clone["cells"]:
        cell.pop("timings")
    return clone


class TestBenchCli:
    @pytest.fixture(autouse=True)
    def _stub(self, stub_registered):
        pass

    def test_emits_bench_json(self, tmp_path, capsys):
        assert main(["bench", "stub-bench", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "stub-bench: 3 cells (3 solved, 0 cached)" in out
        payload = json.loads((tmp_path / "BENCH_stub-bench.json").read_text())
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["cache"] == {"hits": 0, "misses": 3}

    def test_jobs2_is_deterministic_modulo_timings(self, tmp_path):
        for index in (1, 2):
            assert main([
                "bench", "stub-bench", "--jobs", "2",
                "--out", str(tmp_path / f"run{index}"),
            ]) == 0
        assert main(["bench", "stub-bench", "--out", str(tmp_path / "serial")]) == 0
        payloads = [
            json.loads((tmp_path / where / "BENCH_stub-bench.json").read_text())
            for where in ("run1", "run2", "serial")
        ]
        assert payloads[0]["jobs"] == 2 and payloads[2]["jobs"] == 1
        stripped = [_strip_timing_fields(payload) for payload in payloads]
        assert stripped[0] == stripped[1] == stripped[2]

    def test_baseline_self_compare_exits_zero(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baseline"
        assert main(["bench", "stub-bench", "--out", str(baseline_dir)]) == 0
        assert main([
            "bench", "stub-bench", "--out", str(tmp_path / "current"),
            "--baseline", str(baseline_dir / "BENCH_stub-bench.json"),
            "--fail-on-regress", "20",
        ]) == 0
        assert " ok" in capsys.readouterr().out

    def test_baseline_regression_exits_one(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baseline"
        assert main(["bench", "stub-bench", "--out", str(baseline_dir)]) == 0
        path = baseline_dir / "BENCH_stub-bench.json"
        payload = json.loads(path.read_text())
        payload["wall_clock_seconds"] = payload["wall_clock_seconds"] / 1000.0 or 1e-9
        path.write_text(json.dumps(payload))
        assert main([
            "bench", "stub-bench", "--out", str(tmp_path / "current"),
            "--baseline", str(path), "--fail-on-regress", "20",
        ]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_baseline_fingerprint_mismatch_exits_one(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baseline"
        assert main(["bench", "stub-bench", "--out", str(baseline_dir)]) == 0
        path = baseline_dir / "BENCH_stub-bench.json"
        payload = json.loads(path.read_text())
        payload["config_fingerprint"] = "f" * 32
        path.write_text(json.dumps(payload))
        assert main([
            "bench", "stub-bench", "--out", str(tmp_path / "current"),
            "--baseline", str(path),
        ]) == 1
        assert "re-record" in capsys.readouterr().out

    def test_bad_baseline_path_fails_before_benchmarking(self, tmp_path, capsys):
        assert main([
            "bench", "stub-bench", "--out", str(tmp_path),
            "--baseline", str(tmp_path / "missing.json"),
        ]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        # Fail-fast: no benchmark ran, so no result was written either.
        assert not (tmp_path / "BENCH_stub-bench.json").exists()

    def test_unknown_benchmark_errors(self, tmp_path, capsys):
        assert main(["bench", "no-such", "--out", str(tmp_path)]) == 1
        assert "unknown benchmark" in capsys.readouterr().err

    def test_no_benchmark_named_errors(self, capsys):
        assert main(["bench"]) == 1
        assert "name at least one benchmark" in capsys.readouterr().err

    def test_list_shows_grids(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "grid:" in out and "stub-bench" in out

    def test_cache_dir_serves_second_run_from_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        for _ in range(2):
            assert main([
                "bench", "stub-bench", "--out", str(tmp_path),
                "--cache-dir", str(cache),
            ]) == 0
        payload = json.loads((tmp_path / "BENCH_stub-bench.json").read_text())
        assert payload["cache"] == {"hits": 3, "misses": 0}

    def test_invalid_fail_on_regress_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "stub-bench", "--fail-on-regress", "-5"])

    # The cProfile tests run last in the class: enabling a profiler
    # de-specializes bytecode (PEP 659), which can inflate the very next
    # timed run and flake the sub-millisecond self-compare gates above.
    def test_profile_embeds_top_functions(self, tmp_path, capsys):
        assert main(["bench", "stub-bench", "--profile", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "profile: top cumulative" in out
        payload = json.loads((tmp_path / "BENCH_stub-bench.json").read_text())
        assert payload["profiled"] is True
        top = payload["profile"]["top_cumulative"]
        assert 0 < len(top) <= 30
        for record in top:
            assert {"function", "file", "line", "ncalls",
                    "tottime_seconds", "cumtime_seconds"} <= set(record)
        # Cumulative ordering: the sweep driver outranks leaf helpers.
        assert top[0]["cumtime_seconds"] >= top[-1]["cumtime_seconds"]

    def test_unprofiled_payload_has_no_profile_key(self, tmp_path):
        assert main(["bench", "stub-bench", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "BENCH_stub-bench.json").read_text())
        assert "profile" not in payload and "profiled" not in payload
