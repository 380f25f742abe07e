"""Pull-based sweep execution: one store-aware frontier, reassembled in order.

Every sweep, at any job count, runs through one *frontier* of unresolved
cells and one pump that pulls work from it as capacity frees up:

1. **Probe** — every cell is checked against the store first; hits are
   recorded as ``cache-hit`` lifecycle events and never scheduled.
   Cells with a persisted *failure record* at or past the attempt
   budget are quarantined up front instead of re-attempted (see
   :mod:`repro.runner.faults`).
2. **Partition** — under ``--shard i/N`` the remaining cells split into
   ours and foreign (deterministic hash of the cell key, see
   :mod:`repro.runner.campaign`); foreign cells are skipped, or queued
   *after* our own when work stealing is on.
3. **Pull** — chunks are dispatched one at a time as workers become
   idle.  Immediately before dispatch each chunk is *re*-probed against
   the store (another host may have stored the cell since step 1) and,
   when a claim policy is active, claimed: a live foreign claim defers
   the cell to its owner, an expired one is stolen.
4. **Record** — results are stored and their claims released as they
   arrive (not at sweep end), so a killed run preserves every solved
   cell and a resumed run re-solves none of them.

The job count only picks what a chunk is and where it runs.  ``jobs ==
1`` queues one chunk per cell and solves each in-process the moment it
is dispatched, sharing one
:class:`~repro.experiments.common.ExperimentSetup` per topology through
the per-process memo.  ``jobs > 1`` fans chunks of same-setup cells over
a :class:`concurrent.futures.ProcessPoolExecutor`, so the expensive
margin-independent setup (DAG construction, ECMP projection, the
oblivious optimization) is built once per chunk; the LRU memo (see
:mod:`repro.runner.memo`) additionally shares setups between chunks that
land on the same long-lived worker.

**Failure domain.**  A failing cell does not sink the sweep outright:

* A solve that raises a *transient* error (OS error, memory pressure,
  unknown exceptions — :func:`~repro.runner.faults.is_transient`) is
  retried with exponential backoff and deterministic jitter, up to the
  policy's ``max_attempts``; *deterministic* errors (``ValueError``
  bugs, LP infeasibility) quarantine immediately.  A cell waiting out
  its backoff never blocks other cells.
* A dead worker (``BrokenProcessPool`` — segfault, OOM kill) costs only
  its in-flight chunks, which are **bisected** and re-queued so one
  poison cell is isolated instead of failing its setup-sharing
  siblings; the pool is replaced and the sweep continues.
* A stuck solve is bounded by a per-cell wall-clock budget
  (``--cell-timeout`` or the kind's :attr:`~repro.runner.spec.CellKind.
  timeout`): a **watchdog** deadline on each dispatched chunk kills the
  pool's workers when exceeded, re-queues the innocent chunks, and
  retries (then quarantines) the overdue cell.  Budgets apply with
  ``jobs > 1`` only — an in-process solve has no worker to kill.
* Quarantining a cell persists a failure record in the store, releases
  its claim, and emits a ``quarantined`` event.  By default any
  quarantine aborts the sweep with the original error once in-flight
  work drains; ``--max-failures N`` / ``--keep-going`` instead turn
  quarantined cells into ``SkippedCell(reason="failed")`` rows of a
  partially-complete report.  When the sweep does abort, the raised
  exception carries a ``partial_report`` attribute so callers can still
  flush lifecycle events and recovered results.

Cells are solved by their registered :class:`~repro.runner.spec.CellKind`
— :func:`solve_cell` just dispatches — so any experiment that
decomposes into independent units rides the same executor.

Results are reassembled strictly in ``spec.cells`` order regardless of
completion order, so every job count emits a table row-for-row
identical to the others.  Sharded runs resolve only part of the
grid: unresolved cells are reported as *skipped* (with a reason), the
report's ``complete`` flag turns false, and table assembly refuses to
emit a partial table — merge the shard stores (``repro cache merge``)
and re-run against the merged store to assemble the full table from
hits alone.  The one sanctioned exception: a report whose only skips
are quarantined cells still assembles its table, omitting those rows
with a note, so ``--keep-going`` campaigns yield usable output.
"""

from __future__ import annotations

import heapq
import itertools
import os
import signal
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ExperimentError
from repro.runner import faults
from repro.runner.campaign import (
    ClaimPolicy,
    Shard,
    cell_shard,
    release_claim,
    try_claim,
)
from repro.runner.faults import (
    CellTimeoutError,
    FailurePolicy,
    WorkerCrashError,
    backoff_delay,
    error_class,
    failure_record,
    is_transient,
)
from repro.runner.memo import clear_all_memos
from repro.runner.spec import SweepCell, SweepSpec, cell_key, cell_kind
from repro.runner.store import CellStore
from repro.runner.timing import CellEvent, EventLog, timed_solve
from repro.topologies.zoo import topology_info
from repro.utils.tables import Table


def solve_cell(cell: SweepCell) -> dict[str, float]:
    """Solve one cell by dispatching through its registered kind."""
    return cell_kind(cell.kind).solve(cell)


def _solve_chunk(
    solve: Callable[[SweepCell], dict[str, float]],
    cells: list[tuple[str, SweepCell]],
    lp_threads: int | None = None,
) -> list[tuple[str, object, str | None, dict[str, float]]]:
    """Solve same-setup cells serially in one worker, stopping at a failure.

    ``cells`` carries each cell's content key alongside it so the worker
    can fire key-addressed injected faults (:func:`repro.runner.faults.
    trigger`) without re-deriving keys.  Returns per-cell ("ok", ratios,
    None, timings) / ("error", exception, detail, {}) outcomes so the
    parent still records and caches every cell solved before a failure.
    ``detail`` carries the failing cell's identity and the worker-side
    traceback, which pickling the exception alone would lose;
    ``timings`` carries the per-phase durations the worker recorded
    (see :mod:`repro.runner.timing`).

    ``lp_threads`` is this worker's share of the coordinator's LP sweep
    threads (:func:`repro.lp.backend.set_lp_threads`), so ``jobs``
    workers sweeping at once do not oversubscribe the host.  ``None``
    (an in-process ``jobs == 1`` solve) leaves the caller's own setting
    alone.
    """
    if lp_threads is not None:
        from repro.lp.backend import set_lp_threads

        set_lp_threads(lp_threads)
    outcomes: list[tuple[str, object, str | None, dict[str, float]]] = []
    for key, cell in cells:
        try:
            faults.trigger("solve", key)
            ratios, timings = timed_solve(solve, cell)
            outcomes.append(("ok", ratios, None, timings))
        except Exception as error:
            detail = (
                f"cell {cell.topology}/{cell.demand_model} margin={cell.margin:g} "
                f"kind={cell.kind} failed in worker:\n{traceback.format_exc()}"
            )
            outcomes.append(("error", error, detail, {}))
            break
    return outcomes


def _split_chunk(
    chunk: list[tuple[int, SweepCell]],
) -> list[list[tuple[int, SweepCell]]]:
    """Split one chunk in two, preferring a margin boundary near the middle.

    Cells of one margin can share per-margin state beyond the setup
    (fig10's worst-case oracle and ideal routing), so a mid-margin split
    would rebuild that state in both workers; the boundary nearest the
    midpoint keeps each margin's cells together at no cost to balance.
    """
    half = len(chunk) // 2
    boundaries = [
        i for i in range(1, len(chunk)) if chunk[i - 1][1].margin != chunk[i][1].margin
    ]
    split = min(boundaries, key=lambda i: abs(i - half)) if boundaries else half
    return [chunk[:split], chunk[split:]]


def _chunk_pending(
    pending: list[tuple[int, SweepCell]], workers: int
) -> list[list[tuple[int, SweepCell]]]:
    """Group unsolved cells by setup key, splitting groups to fill workers.

    One chunk = one pullable unit of work: its cells share a setup, so
    the expensive margin-independent preparation runs once per chunk.
    Groups are split in two (largest first, at margin boundaries where
    possible) only while workers would otherwise be idle.
    """
    groups: dict[tuple, list[tuple[int, SweepCell]]] = {}
    for index, cell in pending:
        groups.setdefault(cell.setup_key(), []).append((index, cell))
    chunks = list(groups.values())
    while len(chunks) < workers and any(len(chunk) > 1 for chunk in chunks):
        chunks.sort(key=len)
        largest = chunks.pop()
        chunks += _split_chunk(largest)
    return chunks


def _row_value(cell: SweepCell, column: str, *, display: bool):
    """Resolve one row-identity column for a cell.

    ``display=False`` yields the raw merge key (topology name);
    ``display=True`` yields what the table prints (paper label).
    """
    if column == "network":
        return topology_info(cell.topology).paper_label if display else cell.topology
    if column == "margin":
        return cell.margin
    params = cell.params_dict()
    if column in params:
        return params[column]
    raise ExperimentError(
        f"cell kind {cell.kind!r} cannot resolve row column {column!r} "
        f"(known: network, margin, or a param name)"
    )


@dataclass(frozen=True)
class CellResult:
    """One solved (or store-served) cell.

    ``timings`` maps phase names ("setup"/"solve"/"evaluate" plus
    "total") to seconds for freshly solved cells; store-served cells
    carry an empty dict — no work was timed.  ``stolen`` marks results
    this run produced by taking over an abandoned claim or a foreign
    shard's cell under work stealing.
    """

    cell: SweepCell
    key: str
    ratios: dict[str, float]
    cached: bool
    timings: dict[str, float] = field(default_factory=dict)
    stolen: bool = False

    @property
    def status(self) -> str:
        """``"cache-hit"``, ``"stolen"``, or ``"solved"``."""
        if self.cached:
            return "cache-hit"
        return "stolen" if self.stolen else "solved"


@dataclass(frozen=True)
class SkippedCell:
    """One cell this run deliberately did not resolve, and why.

    ``reason`` is ``"foreign-shard"`` (belongs to another shard, work
    stealing off), ``"claimed-elsewhere"`` (another owner holds a live
    claim; resume picks the result up from the store once they finish),
    or ``"failed"`` (quarantined after exhausting its attempts — a
    failure record in the store carries the error; triage with
    ``repro cache failures``).  ``detail`` refines the reason (e.g. the
    failure's error class).
    """

    cell: SweepCell
    key: str
    reason: str
    detail: str = ""


@dataclass
class SweepReport:
    """A completed sweep: per-cell results in spec order, plus counters.

    ``elapsed`` is measured on the monotonic clock
    (``time.perf_counter``), so wall-clock adjustments (NTP steps, DST)
    can never corrupt benchmark payloads; lifecycle *events* keep epoch
    timestamps for cross-host merging (see :mod:`repro.runner.timing`).
    ``aborted`` marks the partial report attached to a raised sweep
    error — its results are real, but the run did not finish.
    """

    spec: SweepSpec
    results: list[CellResult]
    elapsed: float = 0.0
    jobs: int = 1
    skipped: list[SkippedCell] = field(default_factory=list)
    events: list[CellEvent] = field(default_factory=list)
    shard: Shard | None = None
    aborted: bool = False

    @property
    def solved(self) -> int:
        return sum(1 for result in self.results if not result.cached)

    @property
    def cached(self) -> int:
        return sum(1 for result in self.results if result.cached)

    @property
    def stolen(self) -> int:
        return sum(1 for result in self.results if result.stolen)

    @property
    def quarantined(self) -> int:
        """Cells skipped as ``"failed"`` (quarantined) by this run."""
        return sum(1 for skip in self.skipped if skip.reason == "failed")

    @property
    def complete(self) -> bool:
        """Whether every cell of the spec was resolved by this run."""
        return not self.skipped and not self.aborted

    @property
    def table_ready(self) -> bool:
        """Whether :meth:`table` can assemble a faithful table.

        True for complete runs, and for runs whose *only* skips are
        quarantined cells — those assemble with the failed rows omitted
        and a note, so ``--keep-going`` campaigns still emit output.
        Sharded/deferred partials (and aborted reports) stay False.
        """
        return not self.aborted and all(skip.reason == "failed" for skip in self.skipped)

    def lifecycle_counts(self) -> dict[str, int]:
        """Event-name -> occurrence totals for this run's lifecycle log."""
        totals: dict[str, int] = {}
        for event in self.events:
            totals[event.event] = totals.get(event.event, 0) + 1
        return totals

    def phase_totals(self) -> dict[str, float]:
        """Per-phase seconds summed over every freshly solved cell.

        Cached cells contribute nothing (their timings are empty), so
        the totals measure work actually performed by this sweep.
        """
        totals: dict[str, float] = {}
        for result in self.results:
            for name, seconds in result.timings.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def table(self) -> Table:
        """Reassemble the table in declared cell order.

        Consecutive cells that share a row identity (all ``row_columns``
        values equal) merge their result dicts into one row; the row's
        values are then picked in the spec's declared column order.

        A partial (sharded / claim-deferred) report cannot assemble a
        faithful table and refuses to: merge the shard stores and re-run
        against the merged store to serve every cell from hits.  A
        report whose only skips are *quarantined* cells does assemble —
        rows touching a failed cell are omitted and counted in a note,
        which is the usable-partial-output contract of ``--keep-going``.
        """
        if not self.table_ready:
            reasons = sorted({skip.reason for skip in self.skipped} or {"aborted"})
            raise ExperimentError(
                f"sweep {self.spec.experiment!r} is partial: {len(self.skipped)} of "
                f"{len(self.spec.cells)} cells unresolved ({', '.join(reasons)}); "
                f"merge the campaign stores (repro cache merge) and re-run against "
                f"the merged store to assemble the full table"
            )
        spec = self.spec
        omitted = {
            tuple(_row_value(skip.cell, column, display=False) for column in spec.row_columns)
            for skip in self.skipped
        }
        value_columns = spec.resolved_value_columns()
        table = Table(spec.title, list(spec.columns()))
        groups: list[tuple[tuple, SweepCell, dict[str, float]]] = []
        for result in self.results:
            identity = tuple(
                _row_value(result.cell, column, display=False) for column in spec.row_columns
            )
            if groups and groups[-1][0] == identity:
                merged = groups[-1][2]
                clashing = sorted(set(merged) & set(result.ratios))
                if clashing:
                    # Complementary cells (fig10's base + budget cells) have
                    # disjoint columns; an overlap means the row identity is
                    # under-declared and merging would silently drop data.
                    raise ExperimentError(
                        f"sweep {spec.experiment!r}: consecutive cells share row "
                        f"identity {identity!r} but both produce {clashing!r}; "
                        f"declare a distinguishing row column (row_columns="
                        f"{spec.row_columns!r})"
                    )
                merged.update(result.ratios)
            else:
                groups.append((identity, result.cell, dict(result.ratios)))
        for identity, cell, merged in groups:
            if identity in omitted:
                # A sibling cell of this row was quarantined; a partial
                # row would render as silently-missing columns.
                continue
            prefix = tuple(_row_value(cell, column, display=True) for column in spec.row_columns)
            missing = [column for column in value_columns if column not in merged]
            if missing:
                raise ExperimentError(
                    f"sweep {spec.experiment!r}: row {prefix!r} is missing result "
                    f"columns {missing!r} (cells produced {sorted(merged)!r})"
                )
            table.add_row(*prefix, *(merged[column] for column in value_columns))
        if omitted:
            table.add_note(
                f"{len(omitted)} row(s) omitted: cell(s) quarantined after repeated "
                f"failures (triage: repro cache failures)"
            )
        for note in spec.notes:
            table.add_note(note)
        if spec.footer is not None:
            for note in spec.footer(self):
                table.add_note(note)
        return table

    def summary(self) -> str:
        base = (
            f"{len(self.results)} cells: {self.solved} solved, "
            f"{self.cached} from cache (jobs={self.jobs}, {self.elapsed:.1f}s)"
        )
        if self.stolen:
            base += f" [{self.stolen} stolen]"
        if self.skipped:
            reasons: dict[str, int] = {}
            for skip in self.skipped:
                reasons[skip.reason] = reasons.get(skip.reason, 0) + 1
            detail = ", ".join(f"{count} {reason}" for reason, count in sorted(reasons.items()))
            base += f"; {len(self.skipped)} skipped ({detail})"
        if self.aborted:
            base += " [aborted]"
        if self.shard is not None:
            base = f"shard {self.shard}: {base}"
        return base


@dataclass
class _Frontier:
    """One sweep's per-cell state machine, shared by every job count.

    The pump moves each runnable cell through :meth:`prepare` (re-probe,
    claim), a solve, and then :meth:`record` or :meth:`fail`.  Everything
    the run knows about its cells — resolved, quarantined, claimed,
    stolen and deferred ones, attempt counts, and the error that aborts
    the sweep — lives here.
    """

    keys: list[str]
    events: EventLog
    policy: FailurePolicy
    cache: CellStore | None
    claims: ClaimPolicy | None
    foreign: set[int] = field(default_factory=set)
    resolved: dict[int, CellResult] = field(default_factory=dict)
    failed: dict[int, SkippedCell] = field(default_factory=dict)
    attempts: dict[int, int] = field(default_factory=dict)
    claimed: set[int] = field(default_factory=set)
    stolen: set[int] = field(default_factory=set)
    deferred: list[tuple[int, SweepCell]] = field(default_factory=list)
    first_error: Exception | None = None

    def probe(self, index: int, cell: SweepCell) -> bool:
        """Serve the cell from the store if present; record the hit."""
        hit = self.cache.get(cell) if self.cache is not None else None
        if hit is None:
            return False
        self.events.emit(self.keys[index], "cache-hit")
        self.resolved[index] = CellResult(cell=cell, key=self.keys[index], ratios=hit, cached=True)
        return True

    def release(self, index: int) -> None:
        if self.claims is not None and index in self.claimed:
            release_claim(self.claims, self.keys[index])
            self.claimed.discard(index)

    def live(self, chunk: list[tuple[int, SweepCell]]) -> list[tuple[int, SweepCell]]:
        """The chunk's cells that are neither resolved nor quarantined."""
        return [(i, c) for i, c in chunk if i not in self.resolved and i not in self.failed]

    def budget(self, cell: SweepCell) -> float | None:
        """The effective wall-clock budget for one cell, if any."""
        timeout = self.policy.cell_timeout
        if timeout is None:
            timeout = cell_kind(cell.kind).timeout
        return timeout if timeout and timeout > 0 else None

    def quarantine(
        self,
        index: int,
        cell: SweepCell,
        error: Exception,
        label: str,
        detail: str,
        *,
        persist: bool = True,
    ) -> None:
        """Give up on a cell: persist its failure record, skip its row.

        ``persist=False`` skips (re)writing the record — used when the
        quarantine *came from* a persisted record, which already carries
        the original error and must not be clobbered with a synthetic one.
        """
        key = self.keys[index]
        count = self.attempts.get(index, 0)
        self.events.emit(key, "quarantined", detail=f"{label} after {count} attempt(s)")
        if self.cache is not None and persist:
            self.cache.put_failure(
                cell,
                failure_record(
                    cell, key, attempts=count, label=label, error=error, detail=detail
                ),
            )
        self.release(index)
        self.failed[index] = SkippedCell(cell=cell, key=key, reason="failed", detail=label)
        over_budget = not self.policy.keep_going and len(self.failed) > self.policy.max_failures
        if over_budget and self.first_error is None:
            self.first_error = error

    def fail(
        self,
        index: int,
        cell: SweepCell,
        error: Exception,
        detail: str,
        *,
        label: str | None = None,
    ) -> float | None:
        """Count one failed attempt; a retry backoff delay, or None if quarantined.

        ``label`` overrides classification for synthetic failures the
        classifier never sees (worker death, watchdog timeout) — both
        count as transient, since a retry gets a fresh worker.
        """
        count = self.attempts.get(index, 0) + 1
        self.attempts[index] = count
        transient = True if label is not None else is_transient(error)
        label = label if label is not None else error_class(error)
        if transient and count < self.policy.max_attempts:
            delay = backoff_delay(self.policy, self.keys[index], count)
            self.events.emit(
                self.keys[index], "retried",
                detail=(
                    f"attempt {count} failed ({label}: {type(error).__name__}); "
                    f"backing off {delay:.2f}s"
                ),
            )
            return delay
        self.quarantine(index, cell, error, label, detail)
        return None

    def prepare(self, batch: list[tuple[int, SweepCell]]) -> list[tuple[int, SweepCell]]:
        """Frontier gate: re-probe the store, then claim, just before dispatch."""
        runnable: list[tuple[int, SweepCell]] = []
        for index, cell in self.live(batch):
            if self.probe(index, cell):
                self.release(index)  # a retried cell may already hold its claim
                continue  # another host stored it since the first probe
            if self.claims is not None and index not in self.claimed:
                key = self.keys[index]
                outcome = try_claim(self.claims, key)
                if outcome == "held":
                    self.events.emit(key, "deferred", detail="live claim by another owner")
                    self.deferred.append((index, cell))
                    continue
                self.claimed.add(index)
                # Probe-then-claim is not atomic: another owner can store
                # the result and release its claim between our miss above
                # and this acquisition.  An owner always stores before
                # releasing, so one more probe now that we hold the claim
                # closes that duplicate-solve window (only claim-*expiry*
                # races can still duplicate work, which is the documented
                # cost).
                if self.probe(index, cell):
                    self.release(index)
                    continue
                if outcome == "stolen" or index in self.foreign:
                    self.stolen.add(index)
                detail = "expired claim taken over" if outcome == "stolen" else ""
                if index in self.foreign:
                    detail = (detail + "; " if detail else "") + "foreign-shard steal"
                self.events.emit(
                    key, "stolen" if index in self.stolen else "claimed", detail=detail
                )
            runnable.append((index, cell))
        return runnable

    # Results are stored as they arrive, not after the sweep completes, so
    # an interrupted or partially failed run preserves every solved cell.
    def record(
        self, index: int, cell: SweepCell, ratios: dict[str, float], timings: dict[str, float]
    ) -> None:
        self.resolved[index] = CellResult(
            cell=cell,
            key=self.keys[index],
            ratios=ratios,
            cached=False,
            timings=timings,
            stolen=index in self.stolen,
        )
        if self.cache is not None:
            self.cache.put(cell, ratios)
            if index in self.attempts:
                # Success after failures: the record is stale — leaving
                # it would quarantine a now-working cell on resume.
                self.cache.clear_failure(cell)
        self.events.emit(self.keys[index], "solved")
        self.release(index)


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache: CellStore | None = None,
    solve: Callable[[SweepCell], dict[str, float]] = solve_cell,
    shard: Shard | None = None,
    claims: ClaimPolicy | None = None,
    steal: bool = False,
    failures: FailurePolicy | None = None,
) -> SweepReport:
    """Execute a sweep spec through the pull-based frontier.

    Args:
        spec: the declared grid.
        jobs: worker processes; 1 solves in-process, one cell at a time.
        cache: result store consulted before solving and updated after;
            ``None`` disables caching entirely (including failure
            records — nothing persists, so every run re-attempts).
        solve: cell solver (injectable for tests).
        shard: restrict solving to one deterministic slice of the grid;
            cells outside it are skipped (``"foreign-shard"``) unless
            ``steal`` is set.  Requires ``cache``: a sharded run only
            makes sense against a store that outlives it.
        claims: participate in claim-file coordination rooted at the
            policy's store directory — live foreign claims defer cells,
            expired ones are stolen.  Claims held when the sweep exits
            for *any* reason (abort, ``KeyboardInterrupt``) are released
            on the way out, so sibling owners never wait out the TTL.
        steal: after this shard's own cells, also pull unstored foreign
            cells (claim-guarded).  Requires ``claims`` so two stealing
            hosts don't duplicate whole shards.
        failures: the retry/timeout/quarantine policy (see
            :class:`~repro.runner.faults.FailurePolicy`); defaults to
            3 attempts with backoff, kind-default timeouts, and abort on
            the first quarantined cell.

    Returns:
        A :class:`SweepReport` whose ``results`` hold every resolved
        cell in ``spec.cells`` order; unresolved cells (sharded,
        deferred, or quarantined) appear in ``skipped`` and flip
        ``complete`` to False.

    Raises:
        The first failing cell's error once quarantined cells exceed the
        policy's budget (in-flight work still drains and is cached
        first).  The raised exception carries a ``partial_report``
        attribute — an ``aborted`` :class:`SweepReport` with everything
        resolved so far — so callers can flush artifacts.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if steal and claims is None:
        raise ValueError("work stealing requires a claim policy (claims=...)")
    if (shard is not None or claims is not None) and cache is None:
        raise ValueError("sharded or claim-coordinated sweeps need a result store (cache=...)")
    # Each sweep starts from cold per-process memos so its cost never
    # depends on what an earlier in-process sweep happened to solve
    # (forked workers would otherwise inherit a warm parent memo too).
    clear_all_memos()
    started = time.perf_counter()
    keys = [cell_key(cell) for cell in spec.cells]
    frontier = _Frontier(
        keys, EventLog(), failures if failures is not None else FailurePolicy(), cache, claims
    )
    pending = [
        (index, cell) for index, cell in enumerate(spec.cells) if not frontier.probe(index, cell)
    ]

    mine, foreign = pending, []
    if shard is not None:
        mine, foreign = [], []
        for index, cell in pending:
            slot = cell_shard(keys[index], shard.count)
            (mine if slot == shard.index else foreign).append((index, cell))
    frontier.foreign = {index for index, _ in foreign}

    skipped: list[SkippedCell] = []
    if shard is not None and not steal:
        for index, cell in foreign:
            frontier.events.emit(
                keys[index], "foreign",
                detail=f"shard {cell_shard(keys[index], shard.count)}/{shard.count}",
            )
            skipped.append(SkippedCell(cell=cell, key=keys[index], reason="foreign-shard"))
    # Own cells first; foreign cells join the tail of the frontier only
    # under work stealing, so stealing never delays our own shard.
    worklist = mine + (foreign if steal else [])

    # Resume gate: a persisted *deterministic* failure record marks a
    # poison cell — resume quarantines it up front instead of blindly
    # re-attempting it (re-arm with `repro cache failures --clear`).
    # Transient records (worker death, timeout, OS errors) describe the
    # environment, not the cell: those cells are re-attempted, with the
    # recorded attempt count seeding the budget so it stays cumulative
    # across runs; success clears the record.
    if cache is not None and worklist:
        remaining: list[tuple[int, SweepCell]] = []
        for index, cell in worklist:
            record_payload = cache.get_failure(cell)
            if record_payload is None:
                remaining.append((index, cell))
                continue
            prior_raw = record_payload.get("attempts")
            if isinstance(prior_raw, (int, float)) and prior_raw >= 0:
                frontier.attempts[index] = int(prior_raw)
            if record_payload.get("error_class") != "deterministic":
                remaining.append((index, cell))
                continue
            error = ExperimentError(
                f"cell {keys[index]} carries a persisted failure record "
                f"({record_payload.get('error_type', '?')}: "
                f"{record_payload.get('message', '?')}); re-arm it with "
                f"`repro cache failures --clear`, or run with --keep-going / "
                f"--max-failures to skip its row"
            )
            frontier.quarantine(index, cell, error, "persisted-record", "", persist=False)
        worklist = remaining

    try:
        if worklist and frontier.first_error is None:
            _pump(frontier, worklist, jobs, solve)
    finally:
        # Claims must never outlive the run that holds them: on abort,
        # KeyboardInterrupt, or SIGTERM-turned-exception, releasing here
        # lets sibling owners reclaim the cells immediately instead of
        # waiting out the TTL.
        for index in list(frontier.claimed):
            frontier.release(index)

    first_error = frontier.first_error
    # Cells deferred to a live claim may have been stored by their owner
    # while we worked; pick those up as hits, report the rest as skipped.
    for index, cell in frontier.deferred:
        if index in frontier.resolved:
            continue
        if first_error is None and frontier.probe(index, cell):
            continue
        skipped.append(SkippedCell(cell=cell, key=keys[index], reason="claimed-elsewhere"))

    skipped.extend(frontier.failed.values())
    key_order = {key: index for index, key in enumerate(keys)}
    skipped.sort(key=lambda skip: key_order[skip.key])
    report = SweepReport(
        spec=spec,
        results=[frontier.resolved[index] for index in sorted(frontier.resolved)],
        elapsed=time.perf_counter() - started,
        jobs=jobs,
        skipped=skipped,
        events=frontier.events.events,
        shard=shard,
        aborted=first_error is not None,
    )
    if first_error is not None:
        # Failing runs still carry everything they resolved: the CLI
        # flushes lifecycle events (and recovered results) from this.
        first_error.partial_report = report
        raise first_error
    return report


class _InProcessExecutor:
    """The ``jobs == 1`` pool: ``submit`` runs the chunk at once, here.

    A single-job sweep stays in-process, so an injected ``solve`` needs
    no pickling, and anything the chunk does not catch (such as
    ``KeyboardInterrupt``) propagates straight out of ``submit``.
    """

    def submit(self, fn: Callable, /, *args) -> Future:
        future: Future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """No-op: no work outlives its ``submit``."""


def _pump(
    frontier: _Frontier,
    worklist: list[tuple[int, SweepCell]],
    jobs: int,
    solve: Callable[[SweepCell], dict[str, float]],
) -> None:
    """The frontier pump: dispatch, retries, watchdog, bisection.

    ``jobs == 1`` queues one chunk per cell, in worklist order, on an
    :class:`_InProcessExecutor`: each cell is re-probed and claimed just
    before it runs, the coordinator's LP-thread cap is left alone, and no
    deadline is set (there is no worker to kill).
    ``jobs > 1`` queues same-setup chunks on a process pool and owns the
    pool's whole lifecycle — including *replacing* it after a worker
    death (``BrokenProcessPool`` poisons every in-flight future) or a
    watchdog strike (the stuck worker is SIGKILLed, which breaks the
    pool the same way).  At any job count a cell waiting out its retry
    backoff does not hold up the others.
    """
    from repro.lp.backend import lp_threads

    keys, events = frontier.keys, frontier.events
    in_process = jobs == 1
    if in_process:
        queue = deque([item] for item in worklist)
        workers, lp_budget = 1, None
    else:
        queue = deque(_chunk_pending(worklist, jobs))
        workers = min(jobs, len(queue))
        lp_budget = max(1, lp_threads() // workers)
    # Retries wait out their backoff in this heap (ready-time ordered)
    # without blocking dispatch of other work; the tickets break ties.
    retries: list[tuple[float, int, list[tuple[int, SweepCell]]]] = []
    tickets = itertools.count()
    in_flight: dict[Future, tuple[list[tuple[int, SweepCell]], float | None]] = {}
    pool: ProcessPoolExecutor | _InProcessExecutor | None = None

    def chunk_deadline(chunk: list[tuple[int, SweepCell]]) -> float | None:
        """When the watchdog gives up on a dispatched chunk.

        A chunk solves its cells serially, so its budget is the *sum* of
        per-cell budgets; one unbudgeted cell disables the deadline (the
        watchdog cannot attribute overrun without a full budget).
        """
        if in_process:
            return None
        total = 0.0
        for _, cell in chunk:
            budget = frontier.budget(cell)
            if budget is None:
                return None
            total += budget
        return time.monotonic() + total

    def schedule_retry(singleton: list[tuple[int, SweepCell]], delay: float) -> None:
        heapq.heappush(retries, (time.monotonic() + delay, next(tickets), singleton))

    def retire_pool() -> None:
        nonlocal pool
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None

    def kill_pool_workers() -> None:
        """SIGKILL the pool's worker processes (watchdog strike).

        ``_processes`` is private executor state, but there is no public
        kill; the fallback (no attribute) degrades to pool abandonment —
        the stuck worker leaks until the sweep exits, which is still
        bounded.
        """
        processes = getattr(pool, "_processes", None) or {}
        for pid in list(processes):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass

    def strike(chunk: list[tuple[int, SweepCell]], death: Exception | None) -> None:
        """A chunk lost its worker (``death``) or blew its deadline (None).

        A multi-cell chunk is bisected and re-queued, which isolates a
        crashing or stuck cell in O(log n) strikes instead of discarding
        (or endlessly re-running) its setup-sharing siblings.  Only a
        *singleton* chunk's strike counts as an attempt against its cell
        — a multi-cell strike doesn't identify the culprit, and charging
        innocents could quarantine them.
        """
        live = frontier.live(chunk)
        if len(live) > 1:
            if death is not None:
                event, detail = "retried", "worker died; chunk bisected to isolate the poison cell"
            else:
                event = "timed-out"
                detail = "chunk exceeded its combined budget; split to isolate the slow cell"
            for index, _ in live:
                events.emit(keys[index], event, detail=detail)
            queue.extend(_split_chunk(live))
            return
        if not live:
            return
        [(index, cell)] = live
        where = (
            f"cell {keys[index]} ({cell.topology}/{cell.demand_model} "
            f"margin={cell.margin:g} kind={cell.kind})"
        )
        if death is not None:
            events.emit(keys[index], "failed", detail="worker died")
            error: Exception = WorkerCrashError(
                f"worker died while solving {where}; "
                f"suspect a segfault, OOM kill, or injected fault"
            )
            error.__cause__ = death
            detail, label = f"{type(death).__name__}: {death}", "worker-death"
        else:
            budget = frontier.budget(cell)
            events.emit(
                keys[index], "timed-out",
                detail=f"exceeded its {budget:g}s wall-clock budget; worker killed",
            )
            error = CellTimeoutError(f"{where} exceeded its {budget:g}s wall-clock budget")
            detail, label = "", "timeout"
        delay = frontier.fail(index, cell, error, detail, label=label)
        if delay is not None:
            schedule_retry(live, delay)

    def process_outcomes(
        chunk: list[tuple[int, SweepCell]],
        outcomes: list[tuple[str, object, str | None, dict[str, float]]],
    ) -> None:
        for (index, cell), (status, value, detail, timings) in zip(chunk, outcomes):
            if status == "ok":
                frontier.record(index, cell, value, timings)
                continue
            events.emit(keys[index], "failed", detail=type(value).__name__)
            if not in_process:
                # Re-attach the worker-side context lost to pickling:
                # raising the error then chains the original traceback
                # and failing-cell identity as its cause.
                value.__cause__ = RuntimeError(detail)
            delay = frontier.fail(index, cell, value, detail or "")
            if delay is not None:
                schedule_retry([(index, cell)], delay)
        # A failed chunk stops mid-way; its unreached cells are innocent
        # — re-queue them as one chunk (we may still hold their claims,
        # which prepare() won't re-take).
        rest = frontier.live(chunk[len(outcomes):])
        if rest:
            queue.append(rest)

    def pull() -> None:
        """Dispatch frontier chunks while workers are idle.

        A worker can die between two submits: the pool then refuses the
        next one (``BrokenProcessPool``) before its in-flight futures
        report the death.  The refused chunk never ran, so it goes back to
        the front of the queue uncharged; the death path replaces the pool
        once those futures fail, or right away when none are in flight.
        """
        while (
            queue and pool is not None and len(in_flight) < workers
            and frontier.first_error is None
        ):
            runnable = frontier.prepare(queue.popleft())
            if not runnable:
                continue
            try:
                future = pool.submit(
                    _solve_chunk, solve, [(keys[i], c) for i, c in runnable], lp_budget
                )
            except BrokenProcessPool:
                queue.appendleft(runnable)
                if not in_flight:
                    retire_pool()
                return
            in_flight[future] = (runnable, chunk_deadline(runnable))

    try:
        while True:
            now = time.monotonic()
            while retries and retries[0][0] <= now and frontier.first_error is None:
                queue.append(heapq.heappop(retries)[2])
            if frontier.first_error is None and (queue or retries) and pool is None:
                pool = (
                    _InProcessExecutor() if in_process
                    else ProcessPoolExecutor(max_workers=workers)
                )
            pull()
            if not in_flight:
                if frontier.first_error is not None or not (queue or retries):
                    break
                if queue:
                    continue  # prepare() resolved the popped chunks without dispatching
                # Only backoff sleepers remain; wait for the earliest.
                time.sleep(max(0.0, retries[0][0] - time.monotonic()))
                continue
            wake_times = [
                deadline for _, deadline in in_flight.values() if deadline is not None
            ]
            if retries and frontier.first_error is None:
                wake_times.append(retries[0][0])
            timeout = (
                max(0.0, min(wake_times) - time.monotonic()) if wake_times else None
            )
            done, _ = wait(list(in_flight), timeout=timeout, return_when=FIRST_COMPLETED)
            death: Exception | None = None
            for future in done:
                chunk, _deadline = in_flight.pop(future)
                try:
                    outcomes = future.result()
                except Exception as error:  # BrokenProcessPool: a worker died
                    death = error
                    strike(chunk, death)
                    continue
                process_outcomes(chunk, outcomes)
            if death is not None:
                # One dead worker breaks the whole pool: every other
                # in-flight future is poisoned too.  Requeue their live
                # cells through the same bisection path and start fresh.
                for future in list(in_flight):
                    chunk, _deadline = in_flight.pop(future)
                    strike(chunk, death)
                retire_pool()
                continue
            now = time.monotonic()
            overdue = [
                future
                for future, (_, deadline) in in_flight.items()
                if deadline is not None and now >= deadline
            ]
            if overdue:
                # Watchdog strike.  There is no per-task kill in
                # ProcessPoolExecutor, so the whole pool goes: overdue
                # chunks are charged/split, innocent in-flight chunks
                # requeue unchanged, and the next loop iteration builds
                # a replacement pool.
                for future in overdue:
                    chunk, _deadline = in_flight.pop(future)
                    strike(chunk, None)
                for future in list(in_flight):
                    chunk, _deadline = in_flight.pop(future)
                    live = frontier.live(chunk)
                    if live:
                        queue.append(live)
                kill_pool_workers()
                retire_pool()
            # Keep pulling: chunks already in flight when an error hits
            # still complete and cache their results; we just stop
            # feeding the frontier.
    finally:
        retire_pool()
