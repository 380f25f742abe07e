"""Tests for the cell store: DirStore, verify, and the default-location
rules."""

import json
import logging

from repro.config import SolverConfig
from repro.experiments.common import SCHEME_COLUMNS
from repro.runner.spec import SweepCell, cell_key
from repro.runner.store import DirStore, default_cache_dir, verify_store

TINY_SOLVER = SolverConfig(
    max_adversarial_rounds=2,
    max_inner_iterations=10,
    smoothing_temperatures=(8.0, 64.0),
)


def make_cell(margin=1.0, topology="abilene", **overrides):
    return SweepCell(
        experiment=overrides.pop("experiment", "test"),
        topology=topology,
        demand_model=overrides.pop("demand_model", "gravity"),
        margin=margin,
        seed=overrides.pop("seed", 7),
        solver=TINY_SOLVER,
        **overrides,
    )


def result_for(cell):
    return {scheme: cell.margin + i for i, scheme in enumerate(SCHEME_COLUMNS)}


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "override"

    def test_xdg_cache_home_respected(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"

    def test_falls_back_to_home_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert str(default_cache_dir()).endswith(".cache/repro")


class TestDirStore:
    def test_roundtrip(self, tmp_path):
        store = DirStore(tmp_path)
        cell = make_cell()
        assert store.get(cell) is None and not store.contains(cell)
        store.put(cell, result_for(cell))
        assert store.contains(cell)
        assert store.get(cell) == result_for(cell)

    def test_corrupt_entry_logs_structured_warning(self, tmp_path, caplog):
        store = DirStore(tmp_path)
        cell = make_cell()
        path = store.put(cell, result_for(cell))
        path.write_text("{not json")
        with caplog.at_level(logging.WARNING, logger="repro.runner.store"):
            assert store.get(cell) is None
        record = caplog.records[-1]
        assert record.cell_key == cell_key(cell)
        assert "unreadable" in record.reason
        assert "dropping entry" in record.getMessage()

    def test_fingerprint_mismatch_logs_and_misses(self, tmp_path, caplog):
        store = DirStore(tmp_path)
        cell, other = make_cell(), make_cell(margin=2.0)
        payload = json.loads(store.put(other, result_for(other)).read_text())
        store.put(cell, result_for(cell))
        store.path_for(cell).write_text(json.dumps(payload))
        with caplog.at_level(logging.WARNING, logger="repro.runner.store"):
            assert store.get(cell) is None
        assert "fingerprint mismatch" in caplog.records[-1].reason

    def test_missing_column_is_a_miss(self, tmp_path, caplog):
        store = DirStore(tmp_path)
        cell = make_cell()
        incomplete = dict(result_for(cell))
        incomplete.pop(SCHEME_COLUMNS[0])
        path = store.put(cell, result_for(cell))
        payload = json.loads(path.read_text())
        payload["result"] = incomplete
        path.write_text(json.dumps(payload))
        with caplog.at_level(logging.WARNING, logger="repro.runner.store"):
            assert store.get(cell) is None
        assert "missing columns" in caplog.records[-1].reason

    def test_plain_miss_is_silent(self, tmp_path, caplog):
        store = DirStore(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.runner.store"):
            assert store.get(make_cell()) is None
        assert not caplog.records

    def test_len_counts_only_entry_leaves(self, tmp_path):
        store = DirStore(tmp_path)
        cell = make_cell()
        store.put(cell, result_for(cell))
        key = cell_key(cell)
        # Litter older versions left in the store (a campaign manifest,
        # claim files) must not count.
        (tmp_path / "manifest.json").write_text("{}")
        claims = tmp_path / "claims"
        claims.mkdir()
        (claims / f"{key}.claim").write_text("{}")
        (claims / "stray.json").write_text("{}")
        misfiled = tmp_path / "zz" / f"{key}.json"  # wrong prefix directory
        misfiled.parent.mkdir()
        misfiled.write_text("{}")
        (tmp_path / key[:2] / "notakey.json").write_text("{}")
        assert len(store) == 1
        assert list(store.entry_keys()) == [key]


class TestVerify:
    def test_verify_detects_miskeyed_entry(self, tmp_path):
        store = DirStore(tmp_path)
        one, two = make_cell(), make_cell(margin=2.0)
        store.put(one, result_for(one))
        path = store.put(two, result_for(two))
        # Rename two's entry under one-off key: fingerprint no longer hashes
        # to the filename, which verify must flag.
        bogus = cell_key(two)[:-1] + ("0" if cell_key(two)[-1] != "0" else "1")
        target = store.path_for_key(bogus)
        target.parent.mkdir(parents=True, exist_ok=True)
        path.rename(target)
        report = verify_store(store)
        assert report.checked == 2 and not report.ok
        key, reason = report.problems[0]
        assert key == bogus and "hashes to" in reason

    def test_verify_clean_store_ok(self, tmp_path):
        store = DirStore(tmp_path)
        cell = make_cell()
        store.put(cell, result_for(cell))
        report = verify_store(store)
        assert report.ok and report.checked == 1
        assert "ok" in report.summary()
