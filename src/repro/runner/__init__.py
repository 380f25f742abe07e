"""Parallel sweep runner: cell decomposition, pull-based execution,
pluggable content-addressed stores, campaign coordination, and JSON
artifacts.

The experiment drivers declare their grids as :class:`SweepSpec`s of
:class:`SweepCell`s, each solved by a registered :class:`CellKind`;
:func:`run_sweep` executes them serially or across a process pool,
pulling work through a store-aware frontier, and reassembles tables in
deterministic cell order.  Results persist through the :class:`CellStore`
layer (:class:`DirStore` single directory, :class:`OverlayStore`
read-through layering); :mod:`repro.runner.campaign` adds the shard
math, claim files, and manifests that turn a shared store into a
distributed, resumable campaign.  See DESIGN notes in the submodules
for the store layout and key derivation.
"""

from repro.runner.artifacts import write_artifacts
from repro.runner.campaign import (
    ClaimPolicy,
    Shard,
    build_manifest,
    cell_shard,
    default_owner,
    load_manifest,
    parse_shard,
    write_manifest,
)
from repro.runner.executor import (
    CellResult,
    SkippedCell,
    SweepReport,
    run_sweep,
    solve_cell,
)
from repro.runner.memo import LruMemo, clear_all_memos
from repro.runner.store import (
    CellStore,
    DirStore,
    OverlayStore,
    default_cache_dir,
    merge_stores,
    open_store,
    store_stats,
    verify_store,
)
from repro.runner.timing import CellEvent, EventLog, phase, record_phases, timed_solve
from repro.runner.spec import (
    CACHE_VERSION,
    CellKind,
    SweepCell,
    SweepSpec,
    cell_key,
    cell_kind,
    freeze_params,
    grid_cells,
    register_cell_kind,
    spec_fingerprint,
)

__all__ = [
    "CACHE_VERSION",
    "CellEvent",
    "CellKind",
    "CellResult",
    "CellStore",
    "ClaimPolicy",
    "DirStore",
    "EventLog",
    "LruMemo",
    "OverlayStore",
    "Shard",
    "SkippedCell",
    "SweepCell",
    "SweepReport",
    "SweepSpec",
    "build_manifest",
    "cell_key",
    "cell_kind",
    "cell_shard",
    "clear_all_memos",
    "default_cache_dir",
    "default_owner",
    "freeze_params",
    "grid_cells",
    "load_manifest",
    "merge_stores",
    "open_store",
    "parse_shard",
    "phase",
    "record_phases",
    "register_cell_kind",
    "run_sweep",
    "solve_cell",
    "spec_fingerprint",
    "store_stats",
    "timed_solve",
    "verify_store",
    "write_artifacts",
    "write_manifest",
]
