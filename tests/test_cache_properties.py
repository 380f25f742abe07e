"""Property-based tests for cache-key stability (hypothesis).

The result cache is only sound if cell fingerprints are *stable* (the
same logical cell always hashes the same, regardless of how its params
mapping was constructed), *distinct* (different kinds, params, or
column sets never collide), and *versioned* (a ``CACHE_VERSION`` bump
orphans every old entry).  These are exactly the properties a unit test
with two hand-picked examples under-covers, so hypothesis generates the
examples.

Note: no function-scoped fixtures inside ``@given`` tests (hypothesis'
health check forbids them — they would not reset between generated
examples), so version swaps use try/finally and kinds are registered at
import.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runner.spec as spec_module
from repro.config import ExperimentConfig, SolverConfig
from repro.experiments.registry import experiment_spec
from repro.runner.store import DirStore
from repro.runner.spec import (
    CellKind,
    SweepCell,
    cell_key,
    freeze_params,
    register_cell_kind,
    spec_fingerprint,
)

BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"

SOLVER = SolverConfig(max_adversarial_rounds=2, max_inner_iterations=10)

#: Param values a kind can carry: scalars and (nested) lists of scalars,
#: exactly what freeze_params supports.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)
_param_values = st.one_of(_scalars, st.lists(_scalars, max_size=4))
_param_dicts = st.dictionaries(
    st.text(min_size=1, max_size=12), _param_values, max_size=5
)


def _register_stub_kinds() -> None:
    """(Re-)register the single-column kinds the generated cells use.

    Registration is idempotent (later registrations win), so tests that
    deliberately clobber a kind's columns call this again to restore the
    baseline before the next example.
    """
    for name in ("prop-kind-a", "prop-kind-b"):
        register_cell_kind(CellKind(name=name, solve=lambda cell: {}, columns=("X",)))


_register_stub_kinds()


def make_cell(**overrides) -> SweepCell:
    defaults = dict(
        experiment="prop",
        topology="abilene",
        demand_model="gravity",
        margin=1.0,
        seed=7,
        solver=SOLVER,
    )
    defaults.update(overrides)
    return SweepCell(**defaults)


class TestFingerprintStability:
    @given(params=_param_dicts, reordered=st.randoms())
    def test_fingerprint_invariant_to_param_order(self, params, reordered):
        # The same mapping inserted in any order freezes — and therefore
        # hashes — identically.
        items = list(params.items())
        reordered.shuffle(items)
        shuffled = dict(items)
        assert freeze_params(params) == freeze_params(shuffled)
        cell = make_cell(kind="prop-kind-a", params=freeze_params(params))
        other = make_cell(kind="prop-kind-a", params=freeze_params(shuffled))
        assert cell.fingerprint() == other.fingerprint()
        assert cell_key(cell) == cell_key(other)

    @given(params=_param_dicts)
    def test_lists_and_tuples_freeze_identically(self, params):
        as_tuples = {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in params.items()
        }
        assert freeze_params(params) == freeze_params(as_tuples)

    @given(params=_param_dicts)
    def test_kind_name_always_distinguishes(self, params):
        # Identical inputs under two different kinds never share a key.
        _register_stub_kinds()
        frozen = freeze_params(params)
        key_a = cell_key(make_cell(kind="prop-kind-a", params=frozen))
        key_b = cell_key(make_cell(kind="prop-kind-b", params=frozen))
        assert key_a != key_b

    @given(columns=st.lists(st.text(min_size=1, max_size=8), min_size=1,
                            max_size=4, unique=True))
    def test_column_set_always_distinguishes(self, columns):
        # A kind whose declared columns change must orphan its entries.
        _register_stub_kinds()  # baseline columns ("X",) for this example
        base = cell_key(make_cell(kind="prop-kind-a"))
        if tuple(columns) == ("X",):
            return
        register_cell_kind(
            CellKind(name="prop-kind-a", solve=lambda cell: {}, columns=tuple(columns))
        )
        try:
            assert cell_key(make_cell(kind="prop-kind-a")) != base
        finally:
            _register_stub_kinds()

    @given(margin=st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
           iterations=st.integers(min_value=1, max_value=500))
    def test_solver_fields_participate(self, margin, iterations):
        cell = make_cell(margin=margin)
        tweaked = make_cell(
            margin=margin,
            solver=dataclasses.replace(SOLVER, max_inner_iterations=iterations),
        )
        if iterations == SOLVER.max_inner_iterations:
            assert cell_key(cell) == cell_key(tweaked)
        else:
            assert cell_key(cell) != cell_key(tweaked)


class TestCacheVersion:
    def test_current_version_is_pinned(self):
        # Bumps must be deliberate: runner-v2 orphaned every runner-v1
        # entry when fingerprints gained kind/params/columns; runner-v3
        # when the vectorized kernel re-implemented the solver hot path;
        # runner-v4 when the LP backend layer replaced the one-shot
        # linprog path; runner-v5 when the splitting optimizers moved
        # onto the flat-array flow engine.  If this assertion fails you
        # changed cache semantics — update it *and* leave a
        # CHANGES/ROADMAP note explaining the invalidation.
        assert spec_module.CACHE_VERSION == "runner-v5"

    def test_reduced_table1_key_is_pinned(self):
        # A key that moves without a CACHE_VERSION bump orphans every
        # stored entry silently; a deliberate churn updates this pin.
        first = experiment_spec("table1", ExperimentConfig.reduced()).cells[0]
        assert (first.topology, first.demand_model, first.margin, first.seed) == (
            "abilene", "gravity", 1.0, 20161101,
        )
        assert cell_key(first) == "c938a2ddcd0b7515f1c434958b3fe9e9"

    @pytest.mark.parametrize("name", ["fig9", "fig11"])
    def test_bench_baselines_match_their_workload(self, name):
        # A key churn makes the committed baselines incomparable, which
        # otherwise only a bench run against them would notice.
        baseline = json.loads((BASELINES / f"BENCH_{name}.json").read_text())
        spec = experiment_spec(name, ExperimentConfig.reduced())
        assert baseline["config_fingerprint"] == spec_fingerprint(spec)

    @settings(max_examples=25)
    @given(version=st.text(min_size=1, max_size=16),
           value=st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    def test_version_mismatch_is_always_a_miss(self, tmp_path_factory, version, value):
        # An entry written under any other CACHE_VERSION is never served
        # (and vice versa: current entries vanish after a bump).
        _register_stub_kinds()
        cache = DirStore(tmp_path_factory.mktemp("prop-cache"))
        cell = make_cell(kind="prop-kind-a")
        original = spec_module.CACHE_VERSION
        try:
            spec_module.CACHE_VERSION = version
            cache.put(cell, {"X": value})
            assert cache.get(cell) == {"X": value}
        finally:
            spec_module.CACHE_VERSION = original
        if version != original:
            assert cache.get(cell) is None
