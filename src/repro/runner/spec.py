"""Sweep decomposition: cell kinds, cells, specs, and stable cache keys.

Any experiment whose work decomposes into independent units can ride the
sweep runner.  A :class:`CellKind` names one family of units — the
margin-grid row of Figs. 6-8/Table I, Fig. 9's per-margin local search,
Fig. 10's next-hop-budget evaluations, Fig. 11's per-topology stretch —
and declares the result columns a cell of that kind produces plus the
function that solves it.  :class:`SweepCell` captures exactly the inputs
that determine one unit's result (including the kind and its
kind-specific ``params``), :class:`SweepSpec` is a driver-declared list
of cells plus presentation metadata, and :func:`cell_key` derives the
content-addressed cache key a cell's result is stored under.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.config import REGULARIZATION, SolverConfig
from repro.exceptions import ExperimentError

#: Version tag folded into every cache key.  Bump whenever solver or
#: evaluation semantics change in a way that invalidates stored results.
#: ``runner-v2`` introduced cell kinds (fingerprints gained ``kind`` /
#: ``params`` / per-kind ``columns``), orphaning every ``runner-v1`` entry.
#: ``runner-v3`` swapped the routing hot path onto the vectorized kernel
#: (:mod:`repro.kernel`): SPF/DAG extraction, flow propagation, oracle
#: coefficient assembly, and the local search's delta-evaluated weight
#: step are re-implementations of solver semantics, so every
#: ``runner-v2`` result is treated as stale.  The kernel call sites
#: (``ecmp/routing.py``, ``core/dag_builder.py``, ``core/local_search.py``,
#: ``routing/propagation.py``, ``routing/splitting.py``) carry matching
#: reminders.  (Fingerprints also carried a kernel on/off flag until the
#: pure-Python path became test-only: that changed every key but no
#: result, so the version stayed.)
#: ``runner-v4`` introduced the pluggable LP backend layer
#: (:mod:`repro.lp.backend`): constraint assembly, the reusable-model
#: paths, and the direct-HiGHS engine replace the per-call ``linprog``
#: wrapper.  The default backend is pinned bit-identical to the old
#: ``linprog`` path on every family tested (same engine, same effective
#: options), fingerprints gained an ``lp_backend`` field, and every
#: ``runner-v3`` key is stale by construction.  (They also gained a
#: warm-basis flag, dropped again when warm-basis chaining was removed:
#: that changed every key but no result, so the version stayed.)
#: ``runner-v5`` moved the splitting optimizers onto the flat-array flow
#: engine (:mod:`repro.kernel.flowgrad`), whose ulp-level gradient
#: differences can move non-converged robust solves, so cached ratios change.
#: (Fingerprints later lost the ``lp_backend`` field, when direct HiGHS
#: became the only engine and ``linprog`` a test-only reference, and the
#: LP-tolerance, ratio-floor and seed fields of ``SolverConfig``, which
#: no solver read: that changed every key but no result, so the version
#: stayed.  When the ``optimizer`` setting and ``SolverConfig.regularization``
#: became constants, both stayed in fingerprints at their one value, so
#: every key stayed too; the next bump drops them.)
CACHE_VERSION = "runner-v5"


@dataclass(frozen=True)
class CellKind:
    """One family of sweep cells: its result columns and its solver.

    Attributes:
        name: registry identifier, folded into every cell fingerprint.
        solve: maps a cell of this kind to its column -> value dict.
        columns: the result columns one cell produces — a static tuple,
            or a callable of the cell's ``params`` dict for kinds whose
            column set depends on a parameter (e.g. Fig. 10's budgets).
        timeout: default per-cell wall-clock budget in seconds, enforced
            by the parallel executor's watchdog (a stuck solve is killed,
            retried, and eventually quarantined — see
            :mod:`repro.runner.faults`); ``None`` disables the watchdog
            for this kind.  Overridable per run via ``--cell-timeout``.
            Deliberately *not* part of the fingerprint: a budget bounds
            when a solve is abandoned, never what it computes, so cached
            results stay valid across timeout changes.
    """

    name: str
    solve: Callable[["SweepCell"], dict[str, float]]
    columns: tuple[str, ...] | Callable[[dict[str, Any]], Sequence[str]]
    timeout: float | None = None

    def cell_columns(self, params: Mapping[str, Any]) -> tuple[str, ...]:
        """The result columns for one cell with the given params."""
        if callable(self.columns):
            return tuple(self.columns(dict(params)))
        return tuple(self.columns)


_CELL_KINDS: dict[str, CellKind] = {}


def register_cell_kind(kind: CellKind) -> CellKind:
    """Register ``kind`` under its name (later registrations win).

    Registration happens at import of the module defining the kind's
    solve function; re-importing (or re-registering in tests) simply
    replaces the entry.
    """
    _CELL_KINDS[kind.name] = kind
    return kind


def cell_kind(name: str) -> CellKind:
    """Look up a registered kind, lazily importing the experiment drivers.

    Worker processes unpickle cells before any experiment module has
    run; importing the registry module pulls in every driver and
    therefore every kind registration.
    """
    kind = _CELL_KINDS.get(name)
    if kind is None:
        import repro.experiments.registry  # noqa: F401  (registers kinds)

        kind = _CELL_KINDS.get(name)
    if kind is None:
        raise ExperimentError(
            f"unknown cell kind {name!r}; registered: {', '.join(sorted(_CELL_KINDS))}"
        )
    return kind


def freeze_params(params: Mapping[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    """Normalize a params mapping into the hashable form cells store.

    Items are sorted by name and list values converted to tuples, so two
    cells built from equal mappings compare (and hash) equal.
    """
    if not params:
        return ()

    def _freeze(value: Any) -> Any:
        if isinstance(value, (list, tuple)):
            return tuple(_freeze(item) for item in value)
        return value

    return tuple((name, _freeze(params[name])) for name in sorted(params))


def _jsonable(value: Any) -> Any:
    """Convert frozen param values into their canonical JSON shape."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work.

    Attributes:
        experiment: registry id of the owning experiment (for artifacts).
        topology: registered topology name (e.g. "geant").
        demand_model: "gravity" or "bimodal".
        margin: uncertainty margin for the worst-case oracle.
        seed: RNG seed forwarded to the demand sampler.
        solver: solver knobs; every field participates in the cache key.
        kind: registered :class:`CellKind` name that solves this cell.
        params: kind-specific parameters as sorted (name, value) pairs
            (build with :func:`freeze_params`); every entry participates
            in the cache key.
    """

    experiment: str
    topology: str
    demand_model: str
    margin: float
    seed: int
    solver: SolverConfig
    kind: str = "margin"
    params: tuple[tuple[str, Any], ...] = ()

    def params_dict(self) -> dict[str, Any]:
        """The kind-specific parameters as a plain dict."""
        return dict(self.params)

    def cell_columns(self) -> tuple[str, ...]:
        """The result columns this cell's kind produces for its params."""
        return cell_kind(self.kind).cell_columns(self.params_dict())

    def fingerprint(self) -> dict[str, Any]:
        """A JSON-serializable dict of everything that determines the result.

        The experiment id is deliberately excluded: fig6 and a table1 block
        over the same (topology, model, margin, solver) solve the same cell
        and share one cache entry.  The kind name, its params, and its
        resolved column set all participate, so cells of different kinds
        (or a kind whose columns changed) never share an entry.
        """
        return {
            "version": CACHE_VERSION,
            # The LP sweep's thread count is deliberately absent —
            # isolated solves make results independent of partitioning.
            "kind": self.kind,
            "params": {name: _jsonable(value) for name, value in self.params},
            "columns": list(self.cell_columns()),
            "topology": self.topology,
            "demand_model": self.demand_model,
            "margin": self.margin,
            "seed": self.seed,
            # The robust loop's master optimizer and the regularization
            # weight still determine the result, but they are constants of
            # the code, not settings.  They stay in the key only so that
            # entries stored while they were settings keep their keys;
            # the next CACHE_VERSION bump drops them.
            "optimizer": "softmax",
            "solver": {
                "ratio_tolerance": self.solver.ratio_tolerance,
                "max_adversarial_rounds": self.solver.max_adversarial_rounds,
                "max_inner_iterations": self.solver.max_inner_iterations,
                "smoothing_temperatures": list(self.solver.smoothing_temperatures),
                "regularization": REGULARIZATION,
            },
        }

    def setup_key(self) -> tuple:
        """Hashable key of the margin-independent preparation work.

        Cells that share a setup key reuse one
        :class:`~repro.experiments.common.ExperimentSetup` (DAGs, ECMP,
        Base, the oblivious routing) within a worker process.  The kind
        and params are deliberately excluded: a Fig. 11 stretch cell and
        a Table I margin cell over the same (topology, model, seed,
        solver) build — and therefore share — the identical setup.
        """
        return (self.topology, self.demand_model, self.seed, self.solver)


def fingerprint_key(fingerprint: Mapping[str, Any]) -> str:
    """The content key a fingerprint dict hashes to (hex sha256 prefix).

    This is the sole key-derivation primitive: an entry on disk stores
    its fingerprint, so store verification can re-derive the key from
    the stored fingerprint and compare it to the filename — a mismatch
    means the entry was corrupted or renamed.
    """
    payload = json.dumps(dict(fingerprint), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def cell_key(cell: SweepCell) -> str:
    """Stable content hash of a cell (hex sha256 prefix).

    Keys are process- and platform-independent: they hash the canonical
    JSON encoding of :meth:`SweepCell.fingerprint`, so any change to the
    kind, its params or declared columns, the topology name, demand
    model, margin, seed, any :class:`SolverConfig` field, or
    :data:`CACHE_VERSION` produces a new key and therefore a cache miss.
    (The fingerprint also carries the optimizer name and the
    regularization weight as constants; see :meth:`SweepCell.fingerprint`.)
    """
    return fingerprint_key(cell.fingerprint())


@dataclass(frozen=True)
class SweepSpec:
    """A declared sweep: the cell grid plus table presentation metadata.

    Attributes:
        experiment: registry id (names the artifact files).
        title: table title.
        cells: the grid, in the deterministic order rows are emitted.
            Consecutive cells that resolve to the same row identity (see
            ``row_columns``) merge their results into one row, which is
            how Fig. 10's per-budget cells assemble margin rows.
        row_columns: identity columns prefixed to every row.  "network"
            resolves to the topology's paper label, "margin" to the
            cell's margin; any other name is looked up in the cell's
            params.
        notes: free-form table annotations, appended after the rows.
        footer: optional hook deriving extra notes from the completed
            :class:`~repro.runner.executor.SweepReport` (e.g. Fig. 9's
            mean-gap summary); not part of any cache key.
    """

    experiment: str
    title: str
    cells: tuple[SweepCell, ...]
    row_columns: tuple[str, ...] = ("margin",)
    notes: tuple[str, ...] = ()
    footer: Callable[..., Sequence[str]] | None = None

    def value_columns(self) -> tuple[str, ...]:
        """The result columns, in the first-seen order of the cells' kinds."""
        seen: dict[str, None] = {}
        for cell in self.cells:
            for column in cell.cell_columns():
                seen.setdefault(column, None)
        return tuple(seen)

    def columns(self) -> tuple[str, ...]:
        return (*self.row_columns, *self.value_columns())


def spec_fingerprint(spec: SweepSpec) -> str:
    """Stable hash of the exact workload a spec describes.

    Built from the per-cell content keys (which already fold in the
    solver config, kind params, columns, and :data:`CACHE_VERSION`) plus
    the experiment id and declared columns — two runs (say, a benchmark
    and its baseline) are over the same workload iff their fingerprints
    match.
    """
    payload = json.dumps(
        [spec.experiment, list(spec.columns()), [cell_key(cell) for cell in spec.cells]],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def grid_cells(
    experiment: str,
    topologies: Sequence[str],
    demand_model: str,
    margins: Iterable[float],
    solver: SolverConfig,
    seed: int,
    kind: str = "margin",
    params: Mapping[str, Any] | None = None,
) -> tuple[SweepCell, ...]:
    """Enumerate a (topology x margin) grid in deterministic row order.

    Topology-major ordering matches how the serial drivers looped, so the
    reassembled tables are row-for-row identical to the historical output.
    ``kind`` and ``params`` apply uniformly to every cell; grids whose
    params vary per cell (Fig. 10's budgets) construct cells directly.
    """
    margins = tuple(margins)
    frozen = freeze_params(params)
    return tuple(
        SweepCell(
            experiment=experiment,
            topology=topology,
            demand_model=demand_model,
            margin=margin,
            seed=seed,
            solver=solver,
            kind=kind,
            params=frozen,
        )
        for topology in topologies
        for margin in margins
    )
