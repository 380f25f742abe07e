"""Tests for the command-line interface."""

import itertools
import json

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.config import ExperimentConfig, SolverConfig
from repro.runner.executor import CellResult, SweepReport
from repro.runner.spec import cell_key
from repro.utils.tables import format_csv


def fake_run_sweep(spec, *, jobs=1, cache=None, **_kwargs):
    """Stand-in for run_sweep: serves every cell instantly from 'cache'."""
    results = [
        CellResult(
            cell=cell,
            key=cell_key(cell),
            ratios={column: 1.0 + i for i, column in enumerate(cell.cell_columns())},
            cached=cache is not None,
        )
        for cell in spec.cells
    ]
    return SweepReport(spec=spec, results=results, elapsed=0.0, jobs=jobs)


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "table1" in out

    def test_topo_listing(self, capsys):
        assert main(["topo"]) == 0
        out = capsys.readouterr().out
        assert "abilene" in out and "geant" in out

    def test_topo_detail(self, capsys):
        assert main(["topo", "abilene"]) == 0
        out = capsys.readouterr().out
        assert "11" in out and "hand-coded" in out

    def test_topo_unknown_errors(self, capsys):
        assert main(["topo", "nonexistent"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "fig99"])

    def test_lp_backend_flag_is_rejected(self, capsys):
        # One LP engine: there is nothing left to select.
        with pytest.raises(SystemExit) as raised:
            main(["run", "fig9", "--lp-backend", "scipy"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --lp-backend scipy" in capsys.readouterr().err

    def test_backends_command_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["backends"])
        assert raised.value.code == 2
        assert "invalid choice: 'backends'" in capsys.readouterr().err

    def test_run_fast_experiment(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        assert main(["run", "thm4", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4" in out
        content = csv_path.read_text()
        assert content.startswith("n,")

    def test_run_fig12(self, capsys):
        assert main(["run", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "COYOTE" in out

    def test_run_times_on_the_monotonic_clock(self, capsys, monkeypatch):
        # A wall-clock step back (NTP, DST) must not corrupt the timing.
        steps = itertools.count(0.0, -1000.0)
        monkeypatch.setattr(repro.cli.time, "time", lambda: next(steps))
        assert main(["run", "thm4"]) == 0
        assert "(completed in -" not in capsys.readouterr().out

    def test_run_jobs_ignored_for_non_grid_experiment(self, capsys):
        assert main(["run", "thm4", "--jobs", "2", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "Theorem 4" in captured.out
        assert "no cell grid" in captured.err


class TestSweepParsing:
    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "table1", "--jobs", "4", "--cache-dir", "/tmp/c", "--out", "/tmp/o"]
        )
        assert args.experiment == "table1"
        assert args.jobs == 4
        assert args.cache_dir == ["/tmp/c"]
        assert args.out == "/tmp/o"
        assert not args.no_cache and not args.full
        assert args.shard is None and not args.steal

    def test_cache_dir_repeats_into_layers(self):
        args = build_parser().parse_args(
            ["sweep", "table1", "--cache-dir", "/fast/local", "--cache-dir", "/shared"]
        )
        assert args.cache_dir == ["/fast/local", "/shared"]

    def test_shard_and_steal_flags(self):
        args = build_parser().parse_args(
            ["sweep", "fig9", "--shard", "1/4", "--steal", "--claim-ttl", "120"]
        )
        assert args.shard == "1/4"
        assert args.steal
        assert args.claim_ttl == 120.0

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "fig6"])
        assert args.jobs == 1
        assert args.cache_dir is None and args.out is None

    def test_sweep_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fig99"])

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "table1", "--jobs", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table1", "--jobs", "-2"])

    def test_sweep_non_grid_experiment_rejected(self):
        # thm1 has no cell grid, so the sweep choices exclude it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "thm1"])

    def test_run_accepts_runner_flags(self):
        args = build_parser().parse_args(["run", "table1", "--jobs", "2", "--no-cache"])
        assert args.jobs == 2 and args.no_cache


class TestSweepCommand:
    @pytest.fixture(autouse=True)
    def stub_runner(self, monkeypatch):
        monkeypatch.setattr(repro.cli, "run_sweep", fake_run_sweep)

    def test_sweep_prints_table_and_summary(self, capsys):
        assert main(["sweep", "table1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "9 cells: 9 solved, 0 from cache" in out

    def test_serial_cell_timeout_is_noted_as_ignored(self, capsys):
        assert main(["sweep", "fig6", "--no-cache", "--cell-timeout", "5"]) == 0
        assert "--cell-timeout is enforced only with --jobs > 1" in capsys.readouterr().err
        for flags in (["--jobs", "2", "--cell-timeout", "5"], ["--cell-timeout", "0"]):
            assert main(["sweep", "fig6", "--no-cache", *flags]) == 0
            assert "--cell-timeout" not in capsys.readouterr().err

    def test_sweep_warm_cache_summary(self, capsys, tmp_path):
        assert main(["sweep", "fig6", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 cells: 0 solved, 3 from cache" in out

    def test_sweep_writes_artifacts_and_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        csv_path = tmp_path / "table.csv"
        assert main([
            "sweep", "table1", "--no-cache",
            "--out", str(out_dir), "--csv", str(csv_path),
        ]) == 0
        table = json.loads((out_dir / "table1.table.json").read_text())
        assert table["columns"][:2] == ["network", "margin"]
        assert len(table["rows"]) == 9
        cells = json.loads((out_dir / "table1.cells.json").read_text())
        assert len(cells) == 9
        assert csv_path.read_text().startswith("network,margin,")

    def test_sweep_full_uses_paper_grid(self, capsys):
        assert main(["sweep", "table1", "--full", "--no-cache"]) == 0
        out = capsys.readouterr().out
        # 14 topologies x 9 margins
        assert "126 cells" in out

    def test_sweep_fig9_prints_gap_summary(self, capsys):
        assert main(["sweep", "fig9", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out
        # The footer note is reassembled from the report, not the driver.
        assert "further from the optimum" in out

    def test_sweep_fig10_merges_budget_cells_into_margin_rows(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        assert main(["sweep", "fig10", "--no-cache", "--out", str(out_dir)]) == 0
        table = json.loads((out_dir / "fig10.table.json").read_text())
        assert table["columns"] == ["margin", "ECMP", "ideal", "3 NHs", "5 NHs", "10 NHs"]
        # Reduced config: 3 margins, each row merged from 4 cells.
        assert len(table["rows"]) == 3
        cells = json.loads((out_dir / "fig10.cells.json").read_text())
        assert len(cells) == 12

    def test_sweep_fig11_topology_rows(self, capsys):
        assert main(["sweep", "fig11", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 11" in out and "5 cells" in out
        assert "NSF cost" in out and "BBNPlanet" in out


@pytest.mark.slow
class TestFig11CliParity:
    """`repro sweep fig11 --jobs 2` matches the serial driver row-for-row."""

    def test_parallel_cli_matches_serial_driver(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.fig11_stretch import fig11

        tiny = ExperimentConfig(
            margins=(2.0,),
            solver=SolverConfig(
                max_adversarial_rounds=2,
                max_inner_iterations=10,
                smoothing_temperatures=(8.0, 64.0),
            ),
        )
        monkeypatch.setattr(
            ExperimentConfig, "from_environment", classmethod(lambda cls: tiny)
        )
        monkeypatch.setattr(
            "repro.experiments.fig11_stretch.REDUCED_TOPOLOGIES", ("abilene", "nsf")
        )
        csv_path = tmp_path / "fig11.csv"
        assert main(
            ["sweep", "fig11", "--jobs", "2", "--no-cache", "--csv", str(csv_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "2 cells: 2 solved" in out
        # The serial in-process driver (jobs=1, shared setups) must agree
        # row-for-row with the worker-pool CLI run.  Parity with the
        # *pre-refactor* drivers was established once against the old code
        # at the refactor boundary; this guards serial/parallel divergence.
        serial = fig11(tiny)
        assert csv_path.read_text() == format_csv(serial)


class TestFaultFlags:
    def test_failure_flags_parse(self):
        args = build_parser().parse_args([
            "sweep", "fig6", "--cell-timeout", "5", "--max-attempts", "2",
            "--max-failures", "1", "--keep-going",
            "--inject-fault", "site=solve,action=raise",
            "--inject-fault", "site=claim,action=raise,exc=OSError",
        ])
        assert args.cell_timeout == 5.0 and args.max_attempts == 2
        assert args.max_failures == 1 and args.keep_going
        assert len(args.inject_fault) == 2

    def test_bad_inject_fault_fails_fast(self, capsys, monkeypatch):
        from repro.runner.faults import FAULTS_ENV

        monkeypatch.setenv(FAULTS_ENV, "")
        assert main([
            "sweep", "fig6", "--no-cache",
            "--inject-fault", "site=nowhere,action=raise",
        ]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "site=" in err

    def test_cache_failures_empty_store(self, capsys, tmp_path):
        assert main(["cache", "failures", str(tmp_path)]) == 0
        assert "0 failure record(s)" in capsys.readouterr().out


class TestQuarantineCli:
    """End-to-end: poison cell -> exit 3 -> triage -> clear -> clean rerun."""

    @pytest.fixture
    def tiny_config(self, monkeypatch):
        tiny = ExperimentConfig(
            margins=(1.0, 1.5),
            solver=SolverConfig(
                max_adversarial_rounds=2,
                max_inner_iterations=10,
                smoothing_temperatures=(8.0, 64.0),
            ),
        )
        monkeypatch.setattr(
            ExperimentConfig, "from_environment", classmethod(lambda cls: tiny)
        )
        return tiny

    def test_keep_going_quarantine_resume_and_clear(
        self, capsys, tmp_path, monkeypatch, tiny_config
    ):
        from repro.experiments.registry import experiment_spec
        from repro.runner.faults import FAULTS_ENV

        monkeypatch.setenv(FAULTS_ENV, "")
        store = tmp_path / "store"
        spec = experiment_spec("fig6", tiny_config)
        poison = cell_key(spec.cells[1])

        assert main([
            "sweep", "fig6", "--cache-dir", str(store), "--keep-going",
            "--inject-fault",
            f"site=solve,action=raise,exc=ValueError,key={poison[:12]}",
        ]) == 3
        captured = capsys.readouterr()
        assert "1 cell(s) quarantined" in captured.err
        assert "1 failed" in captured.out  # summary line

        assert main(["cache", "failures", str(store)]) == 0
        listing = capsys.readouterr().out
        assert poison in listing and "deterministic" in listing

        # Resume without the fault: stored cells are hits, the poison
        # cell's persisted record still quarantines it (no re-solve).
        monkeypatch.setenv(FAULTS_ENV, "")
        assert main([
            "sweep", "fig6", "--cache-dir", str(store), "--keep-going",
        ]) == 3
        assert "0 solved" in capsys.readouterr().out

        assert main(["cache", "failures", str(store), "--clear"]) == 0
        assert "cleared 1 failure record(s)" in capsys.readouterr().out
        assert main(["sweep", "fig6", "--cache-dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert "1 solved, 1 from cache" in out

    def test_abort_still_flushes_partial_artifacts(
        self, capsys, tmp_path, monkeypatch, tiny_config
    ):
        from repro.experiments.registry import experiment_spec
        from repro.runner.faults import FAULTS_ENV

        monkeypatch.setenv(FAULTS_ENV, "")
        spec = experiment_spec("fig6", tiny_config)
        poison = cell_key(spec.cells[0])
        out_dir = tmp_path / "artifacts"
        with pytest.raises(ValueError, match="injected ValueError"):
            main([
                "sweep", "fig6", "--no-cache", "--out", str(out_dir),
                "--inject-fault",
                f"site=solve,action=raise,exc=ValueError,key={poison[:12]}",
            ])
        assert "partial artifact" in capsys.readouterr().err
        events = json.loads((out_dir / "fig6.events.json").read_text())
        assert events["aborted"] is True
        assert events["lifecycle"]["quarantined"] == 1
        assert not (out_dir / "fig6.table.json").exists()
