"""Cell stores: where sweeps keep solved cells and resume from.

A :class:`CellStore` is the get/put contract the sweep runner caches
solved cells through.  :class:`DirStore` is the canonical on-disk layout
(one JSON document per cell, content-addressed)::

    <root>/<key[:2]>/<key>.json

where ``key`` is :func:`repro.runner.spec.cell_key` — a hash over the
cell kind and its params, the topology, demand model, margin, seed,
optimizer, every :class:`~repro.config.SolverConfig` field, and the
runner's :data:`~repro.runner.spec.CACHE_VERSION` tag.  Any of those
changing yields a different key, so stale results are never returned;
they are simply never looked up again.

Each entry stores the full cell fingerprint alongside the result, so a
(vanishingly unlikely) hash collision is detected by comparing
fingerprints rather than silently returning the wrong row.  Entries are
validated against the *cell's own* column set — a margin cell requires
the four scheme ratios, a Fig. 10 budget cell only its "k NHs" column —
so an entry missing any column its kind declares is a miss.  Writes are
atomic (temp file + ``os.replace``) so parallel workers and concurrent
sweeps can share one store directory: two sweeps that solve the same
cell write identical content, and readers see one complete entry.

:func:`verify_store` re-hashes every entry's fingerprint and checks it
against the filename, so store corruption is detectable without
re-solving anything (``repro cache verify``).

Rejected entries are never served, and — unlike the historical silent
miss — each drop is logged as a structured warning (key + reason) on
the ``repro.runner.store`` logger, so corruption in a store is
diagnosable instead of quietly re-solved around.

Alongside results, stores persist **failure records**
(``<root>/<key[:2]>/<key>.failed.json``, schema
:data:`~repro.runner.faults.FAILURE_SCHEMA`): when the executor
quarantines a poison cell it writes the cumulative attempt count, error
class/type, worker traceback, and host, and a *resumed* run consults
the record instead of blindly re-attempting the same cell (see
:mod:`repro.runner.faults`).  A later successful solve clears the
record; ``repro cache failures [--clear]`` lists and re-arms them.
Failure records are never entries — :func:`_is_entry` excludes them by
stem shape — so result iteration and verify are unaffected.
"""

from __future__ import annotations

import json
import logging
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.runner import faults
from repro.runner.spec import SweepCell, cell_key, fingerprint_key
from repro.utils.jsonio import write_json_atomic

logger = logging.getLogger(__name__)

#: Environment override for the default store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Filename suffix of persisted failure records (vs ``.json`` entries).
FAILURE_SUFFIX = ".failed.json"


def default_cache_dir() -> Path:
    """The default store root, in precedence order.

    ``$REPRO_CACHE_DIR`` if set, else ``$XDG_CACHE_HOME/repro`` (the
    XDG base-directory contract), else ``~/.cache/repro``.
    """
    override = os.environ.get(CACHE_DIR_ENV, "")
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    if xdg:
        return Path(xdg).expanduser() / "repro"
    return Path("~/.cache/repro").expanduser()


class CellStore(ABC):
    """Get/put solved cell results keyed by content hash.

    Implementations must make ``put`` atomic per entry (readers observe
    either no entry or a complete one, never a torn write) — that
    guarantee is what lets several executors share one store with no
    coordination at all.
    """

    @abstractmethod
    def get(self, cell: SweepCell) -> dict[str, float] | None:
        """The stored column->value dict for ``cell``, or None on a miss."""

    @abstractmethod
    def put(self, cell: SweepCell, result: dict[str, float]) -> Path:
        """Atomically store ``result`` for ``cell``; returns the entry path."""

    @abstractmethod
    def contains(self, cell: SweepCell) -> bool:
        """Whether an entry exists for ``cell`` (no validation performed)."""

    @abstractmethod
    def entry_keys(self) -> Iterator[str]:
        """Every entry key present in the store."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable identity for logs and CLI output."""

    # Failure records are optional store behavior: the no-op defaults
    # keep third-party CellStore implementations working unchanged (a
    # store that never remembers failures simply re-attempts them).

    def get_failure(self, cell: SweepCell) -> dict | None:
        """The persisted failure record for ``cell``, or None."""
        return None

    def put_failure(self, cell: SweepCell, record: dict) -> None:
        """Persist ``record`` as the failure record for ``cell``."""

    def clear_failure(self, cell: SweepCell) -> None:
        """Drop ``cell``'s failure record, if any (idempotent)."""

    def failure_records(self) -> Iterator[tuple[str, dict]]:
        """Every ``(key, record)`` failure pair present in the store."""
        return iter(())

    def clear_failures(self) -> int:
        """Drop every failure record; returns how many were removed."""
        return 0

    def __len__(self) -> int:
        return sum(1 for _ in self.entry_keys())


def _is_entry(path: Path) -> bool:
    """True iff ``path`` is a ``<xx>/<key>.json`` cell-entry leaf.

    Stores share their directory with non-entry JSON (nested artifacts,
    and the campaign manifests and ``claims/`` files older versions
    wrote); only leaves whose stem is a full-length hex key
    filed under its own two-char prefix directory count as entries.
    """
    stem = path.stem
    return (
        len(stem) == 32
        and all(ch in "0123456789abcdef" for ch in stem)
        and path.parent.name == stem[:2]
    )


class DirStore(CellStore):
    """The canonical one-directory store (``<root>/<key[:2]>/<key>.json``)."""

    def __init__(self, root: str | Path):
        self.root = Path(root).expanduser()

    def describe(self) -> str:
        return str(self.root)

    def path_for_key(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def path_for(self, cell: SweepCell) -> Path:
        return self.path_for_key(cell_key(cell))

    def _drop(self, key: str, reason: str) -> None:
        """Record a structured warning for an entry that exists but is unusable."""
        logger.warning(
            "store %s: dropping entry %s (%s); treating as a miss",
            self.root,
            key,
            reason,
            extra={"store": str(self.root), "cell_key": key, "reason": reason},
        )

    def get(self, cell: SweepCell) -> dict[str, float] | None:
        """The stored column->value dict for ``cell``, or None on a miss.

        Unreadable or mismatched entries (corrupt JSON, fingerprint
        collision, a result missing any column the cell's kind declares)
        are treated as misses, never as errors — but each drop is logged
        with its key and reason so shared-store corruption is visible.
        """
        key = cell_key(cell)
        faults.trigger("store.get", key)
        path = self.path_for_key(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as error:
            self._drop(key, f"unreadable entry: {error}")
            return None
        if not isinstance(payload, dict):
            self._drop(key, "payload is not a JSON object")
            return None
        if payload.get("fingerprint") != cell.fingerprint():
            self._drop(key, "fingerprint mismatch (hash collision or tampered entry)")
            return None
        result = payload.get("result")
        if not isinstance(result, dict) or not set(result) >= set(cell.cell_columns()):
            self._drop(key, "result is missing columns the cell's kind declares")
            return None
        try:
            # null round-trips a non-finite value (fig9's undefined gap):
            # the writer emits strict JSON, so NaN is stored as null.
            return {
                str(column): float("nan") if value is None else float(value)
                for column, value in result.items()
            }
        except (TypeError, ValueError):
            self._drop(key, "result contains non-numeric values")
            return None

    def put(self, cell: SweepCell, result: dict[str, float]) -> Path:
        key = cell_key(cell)
        faults.trigger("store.put", key)
        payload = {
            "key": key,
            "experiment": cell.experiment,
            "fingerprint": cell.fingerprint(),
            "result": result,
        }
        return write_json_atomic(self.path_for_key(key), payload, sort_keys=True)

    def contains(self, cell: SweepCell) -> bool:
        return self.path_for(cell).is_file()

    def failure_path_for_key(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{FAILURE_SUFFIX}"

    def get_failure(self, cell: SweepCell) -> dict | None:
        """The failure record for ``cell``, or None.

        An unreadable record is reported (like a dropped entry) and
        treated as absent — the worst case is one extra attempt at a
        cell whose record was torn, which quarantine re-bounds.
        """
        key = cell_key(cell)
        path = self.failure_path_for_key(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as error:
            self._drop(key, f"unreadable failure record: {error}")
            return None
        return payload if isinstance(payload, dict) else None

    def put_failure(self, cell: SweepCell, record: dict) -> None:
        write_json_atomic(self.failure_path_for_key(cell_key(cell)), record, sort_keys=True)

    def clear_failure(self, cell: SweepCell) -> None:
        try:
            self.failure_path_for_key(cell_key(cell)).unlink()
        except OSError:
            pass

    def failure_paths(self) -> Iterator[Path]:
        """Every well-placed ``<xx>/<key>.failed.json`` leaf."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob(f"*/*{FAILURE_SUFFIX}")):
            key = path.name[: -len(FAILURE_SUFFIX)]
            if (
                len(key) == 32
                and all(ch in "0123456789abcdef" for ch in key)
                and path.parent.name == key[:2]
            ):
                yield path

    def failure_records(self) -> Iterator[tuple[str, dict]]:
        for path in self.failure_paths():
            key = path.name[: -len(FAILURE_SUFFIX)]
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as error:
                self._drop(key, f"unreadable failure record: {error}")
                continue
            if isinstance(payload, dict):
                yield key, payload

    def clear_failures(self) -> int:
        cleared = 0
        for path in list(self.failure_paths()):
            try:
                path.unlink()
                cleared += 1
            except OSError:
                pass
        return cleared

    def entry_paths(self) -> Iterator[Path]:
        """Every ``<xx>/<key>.json`` entry leaf (non-entry JSON excluded)."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            if _is_entry(path):
                yield path

    def entry_keys(self) -> Iterator[str]:
        for path in self.entry_paths():
            yield path.stem

    def load_entry(self, key: str) -> dict:
        """The raw JSON payload stored under ``key`` (no validation)."""
        with open(self.path_for_key(key)) as handle:
            return json.load(handle)


def _entry_problem(key: str, payload: object) -> str | None:
    """Why a raw entry payload is unusable, or None if it checks out.

    The decisive check re-derives the content key from the stored
    fingerprint: an entry whose fingerprint does not hash back to its
    own filename was corrupted or renamed, and serving it would return
    some *other* cell's result.
    """
    if not isinstance(payload, dict):
        return "payload is not a JSON object"
    fingerprint = payload.get("fingerprint")
    if not isinstance(fingerprint, dict):
        return "missing fingerprint"
    result = payload.get("result")
    if not isinstance(result, dict):
        return "missing result"
    try:
        derived = fingerprint_key(fingerprint)
    except (TypeError, ValueError) as error:
        return f"fingerprint is not canonically hashable: {error}"
    if derived != key:
        return f"fingerprint hashes to {derived}, not the entry key"
    columns = fingerprint.get("columns")
    if isinstance(columns, list):
        missing = [column for column in columns if column not in result]
        if missing:
            return f"result is missing declared columns {missing!r}"
    for column, value in result.items():
        if value is not None and not isinstance(value, (int, float)):
            return f"non-numeric value for column {column!r}"
    return None


@dataclass
class VerifyReport:
    """Outcome of one :func:`verify_store` scan."""

    checked: int = 0
    problems: list[tuple[str, str]] = field(default_factory=list)  # (key, reason)

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.problems)} problem(s)"
        return f"{self.checked} entries checked, {status}"


def verify_store(store: DirStore) -> VerifyReport:
    """Re-validate every entry: parseable, self-consistent, correctly keyed."""
    report = VerifyReport()
    for path in store.entry_paths():
        key = path.stem
        report.checked += 1
        try:
            payload = store.load_entry(key)
        except (OSError, json.JSONDecodeError) as error:
            report.problems.append((key, f"unreadable: {error}"))
            continue
        problem = _entry_problem(key, payload)
        if problem is not None:
            report.problems.append((key, problem))
    return report
