"""Tests for the parallel sweep runner: kinds, keys, cache, executor, artifacts."""

import dataclasses
import json
import math
import time
from dataclasses import replace

import pytest

import repro.runner.spec as spec_module
import repro.topologies.zoo as zoo
from repro.config import ExperimentConfig, SolverConfig
from repro.experiments.common import SCHEME_COLUMNS
from repro.experiments.fig9_local_search import fig9_spec
from repro.experiments.fig10_approximation import fig10_spec
from repro.experiments.fig11_stretch import fig11_spec
from repro.experiments.margin_sweep import margin_sweep_experiment, margin_sweep_spec
from repro.experiments.registry import experiment_spec, sweepable_experiment_ids
from repro.exceptions import ExperimentError
from repro.runner.artifacts import write_artifacts
from repro.runner.executor import CellResult, SweepReport, _chunk_pending, run_sweep
from repro.runner.memo import LruMemo
from repro.runner.store import DirStore, default_cache_dir
from repro.runner.spec import (
    CellKind,
    SweepCell,
    SweepSpec,
    cell_key,
    cell_kind,
    freeze_params,
    grid_cells,
    register_cell_kind,
)
from repro.utils.jsonio import write_json_atomic

TINY_SOLVER = SolverConfig(
    max_adversarial_rounds=2,
    max_inner_iterations=10,
    smoothing_temperatures=(8.0, 64.0),
)


def make_cell(margin=1.0, topology="abilene", solver=TINY_SOLVER, **overrides):
    return SweepCell(
        experiment=overrides.pop("experiment", "test"),
        topology=topology,
        demand_model=overrides.pop("demand_model", "gravity"),
        margin=margin,
        seed=overrides.pop("seed", 7),
        solver=solver,
        **overrides,
    )


def make_spec(margins=(1.0, 2.0, 3.0), **cell_kwargs):
    cells = tuple(make_cell(margin=m, **cell_kwargs) for m in margins)
    return SweepSpec(experiment="test", title="test sweep", cells=cells)


def _stub_solve(cell: SweepCell) -> dict[str, float]:
    """Deterministic fake solver; later cells finish first under a pool."""
    time.sleep(max(0.0, 0.3 - 0.1 * cell.margin))
    return {scheme: cell.margin + i for i, scheme in enumerate(SCHEME_COLUMNS)}


def _failing_stub_solve(cell: SweepCell) -> dict[str, float]:
    """Fails fast on margin 3.0 while earlier cells are still in flight."""
    if cell.margin == 3.0:
        raise RuntimeError("solver blew up")
    return _stub_solve(cell)


class TestCellKey:
    def test_stable_for_equal_cells(self):
        assert cell_key(make_cell()) == cell_key(make_cell())

    def test_margin_and_topology_change_key(self):
        base = cell_key(make_cell())
        assert cell_key(make_cell(margin=2.0)) != base
        assert cell_key(make_cell(topology="nsf")) != base

    def test_solver_config_changes_key(self):
        base = cell_key(make_cell())
        for change in (
            {"max_adversarial_rounds": 5},
            {"lp_tolerance": 1e-6},
            {"smoothing_temperatures": (8.0,)},
            {"seed": 1},
        ):
            tweaked = replace(TINY_SOLVER, **change)
            assert cell_key(make_cell(solver=tweaked)) != base, change

    def test_experiment_id_shares_key(self):
        # fig6 and a table1 block over the same inputs solve the same cell.
        assert cell_key(make_cell(experiment="fig6")) == cell_key(
            make_cell(experiment="table1")
        )

    def test_version_tag_changes_key(self, monkeypatch):
        base = cell_key(make_cell())
        monkeypatch.setattr("repro.runner.spec.CACHE_VERSION", "runner-v999")
        assert cell_key(make_cell()) != base

    def test_version_tag_is_runner_v5(self):
        # runner-v2: the kind/params generalization orphaned runner-v1;
        # runner-v3: the vectorized kernel re-implemented the solver hot
        # path; runner-v4: the LP backend layer replaced the one-shot
        # linprog path and made the backend part of the fingerprint;
        # runner-v5: the splitting optimizers moved onto the flat-array
        # flow engine, which can move non-converged solves.
        assert spec_module.CACHE_VERSION == "runner-v5"
        assert make_cell().fingerprint()["version"] == "runner-v5"

    def test_kind_columns_change_key(self, monkeypatch):
        # A renamed/added scheme must invalidate entries that would
        # otherwise be served with missing result keys.
        base = cell_key(make_cell())
        margin_kind = cell_kind("margin")
        widened = replace(margin_kind, columns=(*SCHEME_COLUMNS, "NEW"))
        monkeypatch.setitem(spec_module._CELL_KINDS, "margin", widened)
        assert cell_key(make_cell()) != base

    def test_kind_changes_key(self):
        # Two kinds over identical inputs/params never share a cache entry.
        register_cell_kind(CellKind("kind-a", solve=_stub_solve, columns=("X",)))
        register_cell_kind(CellKind("kind-b", solve=_stub_solve, columns=("X",)))
        key_a = cell_key(make_cell(kind="kind-a", params=freeze_params({"p": 1})))
        key_b = cell_key(make_cell(kind="kind-b", params=freeze_params({"p": 1})))
        assert key_a != key_b

    def test_params_change_key(self):
        register_cell_kind(CellKind("kind-p", solve=_stub_solve, columns=("X",)))
        base = cell_key(make_cell(kind="kind-p", params=freeze_params({"budget": 3})))
        other = cell_key(make_cell(kind="kind-p", params=freeze_params({"budget": 5})))
        assert base != other

    def test_freeze_params_is_order_insensitive(self):
        assert freeze_params({"b": [1, 2], "a": 1}) == freeze_params({"a": 1, "b": (1, 2)})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError, match="unknown cell kind"):
            make_cell(kind="no-such-kind").cell_columns()


class TestResultCache:
    """The result cache: a :class:`DirStore` over one directory."""

    def test_roundtrip(self, tmp_path):
        cache = DirStore(tmp_path)
        cell = make_cell()
        result = {scheme: 1.5 for scheme in SCHEME_COLUMNS}
        path = cache.put(cell, result)
        assert path.is_file()
        assert cache.get(cell) == result
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        cache = DirStore(tmp_path)
        assert cache.get(make_cell()) is None

    def test_solver_change_invalidates(self, tmp_path):
        cache = DirStore(tmp_path)
        cell = make_cell()
        cache.put(cell, {"ECMP": 1.0})
        tweaked = replace(cell, solver=replace(TINY_SOLVER, max_adversarial_rounds=9))
        assert cache.get(tweaked) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DirStore(tmp_path)
        cell = make_cell()
        path = cache.put(cell, {"ECMP": 1.0})
        path.write_text("not json{")
        assert cache.get(cell) is None

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        cache = DirStore(tmp_path)
        cell = make_cell()
        path = cache.put(cell, {"ECMP": 1.0})
        payload = json.loads(path.read_text())
        payload["fingerprint"]["margin"] = 99.0
        path.write_text(json.dumps(payload))
        assert cache.get(cell) is None

    def test_non_object_payload_is_a_miss(self, tmp_path):
        cache = DirStore(tmp_path)
        cell = make_cell()
        path = cache.put(cell, {"ECMP": 1.0})
        path.write_text("[]")
        assert cache.get(cell) is None

    def test_non_numeric_result_is_a_miss(self, tmp_path):
        cache = DirStore(tmp_path)
        cell = make_cell()
        path = cache.put(cell, {"ECMP": 1.0})
        payload = json.loads(path.read_text())
        payload["result"]["ECMP"] = None
        path.write_text(json.dumps(payload))
        assert cache.get(cell) is None

    def test_scheme_incomplete_result_is_a_miss(self, tmp_path):
        cache = DirStore(tmp_path)
        cell = make_cell()
        path = cache.put(cell, {scheme: 1.5 for scheme in SCHEME_COLUMNS})
        payload = json.loads(path.read_text())
        del payload["result"][SCHEME_COLUMNS[0]]
        path.write_text(json.dumps(payload))
        assert cache.get(cell) is None

    def test_nan_result_roundtrips_as_strict_json(self, tmp_path):
        # fig9's undefined gap is NaN; entries must stay spec-valid JSON
        # (null, not a bare NaN token) and read back as NaN.
        cache = DirStore(tmp_path)
        cell = make_cell()
        result = {scheme: 1.5 for scheme in SCHEME_COLUMNS}
        result["ECMP"] = float("nan")
        path = cache.put(cell, result)
        assert "NaN" not in path.read_text()
        restored = cache.get(cell)
        assert math.isnan(restored["ECMP"]) and restored["Base"] == 1.5

    def test_wrong_column_set_is_a_miss(self, tmp_path):
        # An entry whose result carries a different kind's columns (here:
        # none of the margin schemes) must not be served.
        cache = DirStore(tmp_path)
        cell = make_cell()
        path = cache.put(cell, {scheme: 1.5 for scheme in SCHEME_COLUMNS})
        payload = json.loads(path.read_text())
        payload["result"] = {"COYOTE-stretch": 1.02}
        path.write_text(json.dumps(payload))
        assert cache.get(cell) is None

    def test_entries_validated_against_own_kind_columns(self, tmp_path):
        # A kind with a single column round-trips without needing the four
        # margin schemes (the pre-v2 cache demanded SCHEME_COLUMNS of all).
        register_cell_kind(CellKind("kind-solo", solve=_stub_solve, columns=("only",)))
        cache = DirStore(tmp_path)
        cell = make_cell(kind="kind-solo")
        cache.put(cell, {"only": 2.5})
        assert cache.get(cell) == {"only": 2.5}

    def test_default_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"


class TestRunSweep:
    def test_serial_rows_in_declared_order(self):
        spec = make_spec()
        report = run_sweep(spec, solve=_stub_solve)
        assert report.table().column("margin") == [1.0, 2.0, 3.0]
        assert report.solved == 3 and report.cached == 0

    def test_parallel_rows_in_declared_order(self):
        # The stub makes later cells finish first; row order must not care.
        spec = make_spec(margins=(1.0, 1.5, 2.0, 2.5))
        report = run_sweep(spec, jobs=2, solve=_stub_solve)
        table = report.table()
        assert table.column("margin") == [1.0, 1.5, 2.0, 2.5]
        assert table.rows == run_sweep(spec, solve=_stub_solve).table().rows

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(make_spec(), jobs=0, solve=_stub_solve)

    def test_cache_hit_on_second_run(self, tmp_path):
        cache = DirStore(tmp_path)
        spec = make_spec()
        first = run_sweep(spec, cache=cache, solve=_stub_solve)
        assert first.solved == 3 and first.cached == 0
        second = run_sweep(spec, cache=cache, solve=_stub_solve)
        assert second.solved == 0 and second.cached == 3
        assert second.table().rows == first.table().rows

    def test_partial_cache_solves_only_misses(self, tmp_path):
        cache = DirStore(tmp_path)
        run_sweep(make_spec(margins=(1.0, 2.0)), cache=cache, solve=_stub_solve)
        report = run_sweep(make_spec(margins=(1.0, 2.0, 3.0)), cache=cache, solve=_stub_solve)
        assert report.cached == 2 and report.solved == 1

    def test_solver_change_misses_cache(self, tmp_path):
        cache = DirStore(tmp_path)
        spec = make_spec()
        run_sweep(spec, cache=cache, solve=_stub_solve)
        tweaked = spec.with_solver(replace(TINY_SOLVER, max_inner_iterations=11))
        report = run_sweep(tweaked, cache=cache, solve=_stub_solve)
        assert report.solved == 3 and report.cached == 0

    def test_failed_cell_preserves_earlier_cached_results(self, tmp_path):
        cache = DirStore(tmp_path)
        spec = make_spec(margins=(1.0, 2.0, 3.0))
        with pytest.raises(RuntimeError, match="solver blew up"):
            run_sweep(spec, cache=cache, solve=_failing_stub_solve)
        # The two cells solved before the failure are already cached.
        report = run_sweep(spec, cache=cache, solve=_stub_solve)
        assert report.cached == 2 and report.solved == 1

    def test_parallel_failure_preserves_in_flight_results(self, tmp_path):
        # Margin 3.0 fails after its chunk-mates solved (and while the other
        # worker's chunk is still running); those results must still be cached.
        cache = DirStore(tmp_path)
        spec = make_spec(margins=(1.0, 2.0, 3.0))
        with pytest.raises(RuntimeError, match="solver blew up"):
            run_sweep(spec, jobs=2, cache=cache, solve=_failing_stub_solve)
        report = run_sweep(spec, cache=cache, solve=_stub_solve)
        assert report.cached == 2 and report.solved == 1

    def test_parallel_failure_names_the_cell(self):
        with pytest.raises(RuntimeError, match="solver blew up") as excinfo:
            run_sweep(make_spec(), jobs=2, solve=_failing_stub_solve)
        assert "margin=3" in str(excinfo.value.__cause__)

    def test_cache_shared_across_experiments(self, tmp_path):
        cache = DirStore(tmp_path)
        run_sweep(make_spec(experiment="fig6"), cache=cache, solve=_stub_solve)
        report = run_sweep(make_spec(experiment="table1"), cache=cache, solve=_stub_solve)
        assert report.solved == 0 and report.cached == 3


class TestSpecs:
    def test_registry_declares_grids(self):
        assert set(sweepable_experiment_ids()) == {
            "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table1",
        }

    def test_non_grid_experiment_rejected(self):
        with pytest.raises(ExperimentError, match="does not decompose"):
            experiment_spec("thm1")

    def test_table1_grid_is_topology_major(self):
        config = ExperimentConfig(margins=(1.0, 2.0), solver=TINY_SOLVER)
        spec = experiment_spec("table1", config)
        assert spec.with_topology_column
        assert [(c.topology, c.margin) for c in spec.cells] == [
            ("abilene", 1.0), ("abilene", 2.0),
            ("nsf", 1.0), ("nsf", 2.0),
            ("germany", 1.0), ("germany", 2.0),
        ]

    def test_table1_full_config_selects_paper_topologies(self):
        spec = experiment_spec("table1", ExperimentConfig.paper())
        assert len({cell.topology for cell in spec.cells}) == 14

    def test_grid_cells_accepts_generator_margins(self):
        # An exhaustible iterable must still yield cells for every topology.
        cells = grid_cells(
            "test", ["abilene", "nsf"], "gravity",
            (m for m in (1.0, 2.0)), TINY_SOLVER, 7,
        )
        assert [(c.topology, c.margin) for c in cells] == [
            ("abilene", 1.0), ("abilene", 2.0), ("nsf", 1.0), ("nsf", 2.0),
        ]

    def test_margin_sweep_spec_one_topology(self):
        config = ExperimentConfig(margins=(1.0,), solver=TINY_SOLVER)
        spec = margin_sweep_spec("nsf", "gravity", config)
        assert [c.topology for c in spec.cells] == ["nsf"]
        assert not spec.with_topology_column
        assert spec.columns() == ("margin", *SCHEME_COLUMNS)

    def test_margin_sweep_spec_does_not_build_topology(self, monkeypatch):
        # A fully-cached sweep must not pay topology construction just to
        # render node/link counts: the note comes from registry metadata.
        info = zoo.topology_info("abilene")
        booby_trapped = dataclasses.replace(
            info, builder=lambda: pytest.fail("spec building constructed the topology")
        )
        monkeypatch.setitem(zoo._REGISTRY, "abilene", booby_trapped)
        config = ExperimentConfig(margins=(1.0,), solver=TINY_SOLVER)
        spec = margin_sweep_spec("abilene", "gravity", config)
        assert "11 nodes / 28 directed edges" in spec.notes[0]


class TestGeneralizedGrids:
    """fig9/fig10/fig11 decompose into kind-specific sweep cells."""

    def test_fig9_spec_is_margin_parallel(self):
        config = ExperimentConfig(margins=(1.0, 2.0), solver=TINY_SOLVER)
        spec = fig9_spec(config)
        assert [(c.kind, c.margin) for c in spec.cells] == [
            ("fig9-local-search", 1.0), ("fig9-local-search", 2.0),
        ]
        assert spec.columns() == ("margin", "ECMP", "COYOTE", "ECMP/COYOTE")
        assert spec.footer is not None

    def test_fig10_spec_interleaves_base_and_budget_cells(self):
        config = ExperimentConfig(margins=(1.0, 2.0), solver=TINY_SOLVER)
        spec = fig10_spec(config, budgets=(3, 10))
        assert [(c.margin, c.params_dict()["budget"]) for c in spec.cells] == [
            (1.0, None), (1.0, 3), (1.0, 10),
            (2.0, None), (2.0, 3), (2.0, 10),
        ]
        assert spec.columns() == ("margin", "ECMP", "ideal", "3 NHs", "10 NHs")

    def test_fig10_cells_share_setup_key_across_budgets(self):
        config = ExperimentConfig(margins=(1.0,), solver=TINY_SOLVER)
        spec = fig10_spec(config)
        assert len({cell.setup_key() for cell in spec.cells}) == 1

    def test_fig11_spec_is_topology_parallel(self):
        config = ExperimentConfig(margins=(1.0,), solver=TINY_SOLVER)
        spec = fig11_spec(config, topologies=("nsf", "bbnplanet"), margin=2.5)
        assert [(c.kind, c.topology, c.margin) for c in spec.cells] == [
            ("fig11-stretch", "nsf", 2.5), ("fig11-stretch", "bbnplanet", 2.5),
        ]
        assert spec.columns() == ("network", "COYOTE-obl", "COYOTE-pk")
        assert spec.row_columns == ("network",)

    def test_fig11_full_config_selects_stretch_topologies(self):
        spec = fig11_spec(ExperimentConfig.paper())
        assert len(spec.cells) == 15  # all but Gambia

    def test_fig11_table_uses_paper_labels(self):
        config = ExperimentConfig(margins=(1.0,), solver=TINY_SOLVER)
        spec = fig11_spec(config, topologies=("nsf",))
        report = run_sweep(
            spec, solve=lambda cell: {"COYOTE-obl": 1.01, "COYOTE-pk": 1.02}
        )
        assert report.table().rows == [("NSF cost", 1.01, 1.02)]

    def test_same_identity_overlapping_columns_is_an_error(self):
        # Two topologies at one margin under margin-only row columns would
        # silently overwrite each other's schemes; it must fail loudly.
        cells = (make_cell(topology="abilene"), make_cell(topology="nsf"))
        spec = SweepSpec(experiment="test", title="t", cells=cells)
        with pytest.raises(ExperimentError, match="share row identity"):
            run_sweep(spec, solve=_stub_solve).table()

    def test_merged_rows_missing_column_is_an_error(self):
        register_cell_kind(CellKind("kind-gap", solve=_stub_solve, columns=("X", "Y")))
        spec = SweepSpec(
            experiment="test", title="t",
            cells=(make_cell(kind="kind-gap"),),
        )
        with pytest.raises(ExperimentError, match="missing result columns"):
            run_sweep(spec, solve=lambda cell: {"X": 1.0}).table()

    def test_fig10_rows_merge_budget_cells(self):
        # Each margin's base + budget cells collapse into one table row.
        config = ExperimentConfig(margins=(1.0, 2.0), solver=TINY_SOLVER)
        spec = fig10_spec(config, budgets=(3,))

        def fake_solve(cell):
            budget = cell.params_dict()["budget"]
            if budget is None:
                return {"ECMP": 2.0 * cell.margin, "ideal": cell.margin}
            return {f"{budget} NHs": cell.margin + 0.5}

        table = run_sweep(spec, solve=fake_solve).table()
        assert table.rows == [(1.0, 2.0, 1.0, 1.5), (2.0, 4.0, 2.0, 2.5)]


class TestFig9Footer:
    def _report(self, gaps):
        config = ExperimentConfig(margins=tuple(1.0 + i for i in range(len(gaps))),
                                  solver=TINY_SOLVER)
        spec = fig9_spec(config)
        results = [
            CellResult(
                cell=cell,
                key=cell_key(cell),
                ratios={"ECMP": 2.0, "COYOTE": 1.0, "ECMP/COYOTE": gap},
                cached=False,
            )
            for cell, gap in zip(spec.cells, gaps)
        ]
        return SweepReport(spec=spec, results=results)

    def test_mean_over_finite_gaps(self):
        table = self._report([1.5, 2.5]).table()
        assert any("on average 100% further" in note for note in table.notes)

    def test_nan_gap_excluded_from_mean(self):
        # A single undefined gap (COYOTE ratio 0) must not poison the mean.
        table = self._report([1.5, float("nan"), 2.5]).table()
        note = next(note for note in table.notes if "further from the optimum" in note)
        assert "100%" in note and "nan" not in note
        assert "1 margin(s) with an undefined gap excluded" in note

    def test_all_gaps_undefined(self):
        table = self._report([float("nan")]).table()
        assert any("all 1 ECMP/COYOTE gaps were undefined" in note for note in table.notes)

    def test_nan_gap_rows_still_emitted(self):
        table = self._report([float("nan"), 1.5]).table()
        assert math.isnan(table.rows[0][3]) and table.rows[1][3] == 1.5


class TestLruMemo:
    def test_hit_returns_cached_value_without_factory(self):
        memo = LruMemo(limit=2)
        assert memo.get_or_create("a", lambda: 1) == 1
        assert memo.get_or_create("a", lambda: pytest.fail("factory re-ran")) == 1

    def test_eviction_is_least_recently_used_not_insertion_order(self):
        # Regression: the old dict-based memo evicted in FIFO insertion
        # order, so alternating setup keys on one long-lived worker would
        # thrash expensive setups.  A hit must refresh the entry.
        memo = LruMemo(limit=2)
        memo.get_or_create("a", lambda: "A")
        memo.get_or_create("b", lambda: "B")
        memo.get_or_create("a", lambda: pytest.fail("hit rebuilt"))  # refresh "a"
        memo.get_or_create("c", lambda: "C")  # evicts "b", not "a"
        assert "a" in memo and "c" in memo and "b" not in memo
        assert memo.get_or_create("a", lambda: pytest.fail("'a' was evicted")) == "A"

    def test_limit_enforced(self):
        memo = LruMemo(limit=2)
        for key in ("a", "b", "c", "d"):
            memo.get_or_create(key, lambda k=key: k)
        assert len(memo) == 2
        assert memo.keys() == ["c", "d"]

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            LruMemo(limit=0)

    def test_run_sweep_starts_from_cold_memos(self):
        # A sweep's cost must not depend on what an earlier in-process
        # sweep (or driver call) happened to memoize: run_sweep resets
        # every per-process memo at entry.
        memo = LruMemo(limit=2)
        memo.get_or_create("left-over", lambda: object())
        run_sweep(make_spec(margins=(1.0,)), solve=_stub_solve)
        assert len(memo) == 0


class TestAtomicJson:
    def test_roundtrip(self, tmp_path):
        path = write_json_atomic(tmp_path / "deep" / "doc.json", {"x": 1})
        assert json.loads(path.read_text()) == {"x": 1}

    def test_non_finite_floats_become_null(self, tmp_path):
        payload = {"gap": float("nan"), "rows": [[1.0, float("inf")]]}
        path = write_json_atomic(tmp_path / "doc.json", payload)
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text) == {"gap": None, "rows": [[1.0, None]]}

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "doc.json"
        write_json_atomic(target, {"x": 1})
        with pytest.raises(TypeError):
            write_json_atomic(target, {"x": object()})  # not JSON-serializable
        # The previous complete document survives; no temp litter remains.
        assert json.loads(target.read_text()) == {"x": 1}
        assert list(tmp_path.glob("*.tmp")) == []


class TestChunking:
    def test_same_setup_cells_share_a_chunk(self):
        pending = list(enumerate(
            make_cell(margin=m, topology=t)
            for t in ("abilene", "nsf") for m in (1.0, 2.0, 3.0)
        ))
        chunks = _chunk_pending(pending, workers=2)
        assert len(chunks) == 2
        for chunk in chunks:
            assert len({cell.setup_key() for _, cell in chunk}) == 1
        assert sorted(index for chunk in chunks for index, _ in chunk) == list(range(6))

    def test_groups_split_to_fill_idle_workers(self):
        pending = list(enumerate(make_cell(margin=m) for m in (1.0, 2.0, 3.0, 4.0)))
        chunks = _chunk_pending(pending, workers=4)
        assert len(chunks) == 4
        assert sorted(index for chunk in chunks for index, _ in chunk) == list(range(4))

    def test_singleton_groups_cannot_split_further(self):
        pending = [(0, make_cell(topology="abilene")), (1, make_cell(topology="nsf"))]
        assert len(_chunk_pending(pending, workers=8)) == 2

    def test_splits_fall_on_margin_boundaries(self):
        # fig10-style group: several cells per margin sharing one setup.
        # Splitting mid-margin would rebuild the per-margin oracle/ideal
        # state in two workers, so the split must land between margins.
        pending = list(enumerate(
            make_cell(margin=m, params=freeze_params({"budget": b}))
            for m in (1.0, 2.0) for b in (None, 3, 10)
        ))
        chunks = _chunk_pending(pending, workers=2)
        assert len(chunks) == 2
        for chunk in chunks:
            assert len({cell.margin for _, cell in chunk}) == 1


class TestArtifacts:
    def test_write_artifacts(self, tmp_path):
        report = run_sweep(make_spec(), solve=_stub_solve)
        table_path, cells_path, events_path = write_artifacts(report, tmp_path / "out")
        table = json.loads(table_path.read_text())
        assert table["experiment"] == "test"
        assert table["rows"] == [list(row) for row in report.table().rows]
        assert table["solved"] == 3 and table["cached"] == 0
        cells = json.loads(cells_path.read_text())
        assert len(cells) == 3
        assert cells[0]["key"] == report.results[0].key
        assert not cells[0]["cached"]
        assert cells[0]["status"] == "solved"
        events = json.loads(events_path.read_text())
        assert events["complete"] and events["shard"] is None
        assert events["lifecycle"] == {"solved": 3}
        assert [e["event"] for e in events["events"]] == ["solved"] * 3


@pytest.mark.slow
class TestParallelEquality:
    """Real-solver equivalence: parallel and serial sweeps agree exactly."""

    def test_parallel_matches_serial(self, tmp_path):
        config = ExperimentConfig(margins=(1.0, 2.0), solver=TINY_SOLVER)
        spec = margin_sweep_spec("abilene", "gravity", config)
        cache = DirStore(tmp_path)
        parallel = run_sweep(spec, jobs=2, cache=cache)
        serial = run_sweep(spec)
        assert parallel.solved == 2
        for row_parallel, row_serial in zip(parallel.table().rows, serial.table().rows):
            assert row_parallel == pytest.approx(row_serial, rel=1e-9)
        # The driver-level serial path produces the same table too.
        driver = margin_sweep_experiment("abilene", "gravity", config)
        assert driver.rows == serial.table().rows
        # A warm rerun re-solves nothing and reproduces the rows bit-for-bit.
        warm = run_sweep(spec, jobs=2, cache=cache)
        assert warm.solved == 0 and warm.cached == 2
        assert warm.table().rows == parallel.table().rows
