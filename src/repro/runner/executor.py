"""Pull-based sweep execution: one store-aware frontier, reassembled in order.

Every sweep, at any job count, runs through one *frontier* of unresolved
cells and one pump that hands them to *lanes* as lanes become idle:

1. **Probe** — every cell is checked against the store first; hits are
   recorded as ``cache-hit`` lifecycle events and never scheduled.
   Cells with a persisted *deterministic* failure record are
   quarantined up front instead of re-attempted (see
   :mod:`repro.runner.faults`).
2. **Pull** — an idle lane takes one cell at a time.  Immediately before
   dispatch the cell is *re*-probed against the store, so a cell another
   sweep on the same store has stored since step 1 is served as a hit
   instead of solved again.
3. **Record** — results are stored as they arrive (not at sweep end),
   so a killed run preserves every solved cell and a resumed run
   re-solves none of them.

Two sweeps sharing one store need no coordination: a cell both miss is
solved twice, and since entries are content-addressed and written
atomically, the second write replaces an identical entry.

**Lanes.**  The pump runs ``min(jobs, cells)`` lanes, each solving one
cell at a time: at ``jobs == 1`` the one lane solves in-process, and at
``jobs > 1`` each lane owns a one-process
:class:`concurrent.futures.ProcessPoolExecutor`.  A lane's process is
long-lived, so the per-process memo (see :mod:`repro.runner.memo`)
keeps the expensive margin-independent
:class:`~repro.experiments.common.ExperimentSetup` (DAG construction,
ECMP projection, the oblivious optimization) warm across its cells.  To
keep it warm, an idle lane prefers, in order, a cell with the same
(setup key, margin) as its last cell, a cell with the same setup, and a
cell whose setup no other lane holds; only a lane that holds nothing
yet takes a cell of another lane's setup.  No lane takes a cell whose
(setup, margin) another lane holds, so per-margin state beyond the
setup (fig10's oracle and ideal routing) is built by one worker only.

**Failure domain.**  A failing cell does not sink the sweep outright:

* A solve that raises a *transient* error (OS error, memory pressure,
  unknown exceptions — :func:`~repro.runner.faults.is_transient`) is
  retried with exponential backoff and deterministic jitter, up to the
  policy's ``max_attempts``; *deterministic* errors (``ValueError``
  bugs, LP infeasibility) quarantine immediately.  A cell waiting out
  its backoff never blocks other cells.
* A dead worker (``BrokenProcessPool`` — segfault, OOM kill) costs one
  attempt of the one cell its lane was solving; the lane gets a fresh
  process and no other lane notices.
* A stuck solve is bounded by a per-cell wall-clock budget
  (``--cell-timeout`` or the kind's :attr:`~repro.runner.spec.CellKind.
  timeout`): a **watchdog** deadline on each dispatched cell kills that
  lane's worker when exceeded and retries (then quarantines) the cell.
  Budgets apply with ``jobs > 1`` only — an in-process solve has no
  worker to kill.
* Quarantining a cell persists a failure record in the store and emits
  a ``quarantined`` event.  By default any
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
identical to the others.  Quarantined cells are reported as *skipped*
and turn the report's ``complete`` flag false; the table still
assembles, omitting their rows with a note, so ``--keep-going`` sweeps
yield usable output.
"""

from __future__ import annotations

import heapq
import itertools
import os
import signal
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ExperimentError
from repro.runner import faults
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
from repro.runner.store import DirStore
from repro.runner.timing import CellEvent, EventLog, timed_solve
from repro.topologies.zoo import topology_info
from repro.utils.tables import Table


def solve_cell(cell: SweepCell) -> dict[str, float]:
    """Solve one cell by dispatching through its registered kind."""
    return cell_kind(cell.kind).solve(cell)


def _solve_one(
    solve: Callable[[SweepCell], dict[str, float]],
    key: str,
    cell: SweepCell,
    lp_threads: int | None = None,
) -> tuple[str, object, str | None, dict[str, float]]:
    """Solve one cell in a lane, returning its outcome instead of raising.

    ``key`` is the cell's content key, so the worker can fire
    key-addressed injected faults (:func:`repro.runner.faults.trigger`)
    without re-deriving it.  Returns ("ok", ratios, None, timings) or
    ("error", exception, detail, {}).  ``detail`` carries the cell's
    identity and the worker-side traceback, which pickling the exception
    alone would lose; ``timings`` carries the per-phase durations the
    worker recorded (see :mod:`repro.runner.timing`).

    ``lp_threads`` is this lane's share of the coordinator's LP sweep
    threads (:func:`repro.lp.backend.set_lp_threads`), so ``jobs``
    workers sweeping at once do not oversubscribe the host.  ``None``
    (an in-process ``jobs == 1`` solve) leaves the caller's own setting
    alone.
    """
    if lp_threads is not None:
        from repro.lp.backend import set_lp_threads

        set_lp_threads(lp_threads)
    try:
        faults.trigger("solve", key)
        ratios, timings = timed_solve(solve, cell)
        return "ok", ratios, None, timings
    except Exception as error:
        detail = (
            f"cell {cell.topology}/{cell.demand_model} margin={cell.margin:g} "
            f"kind={cell.kind} failed in worker:\n{traceback.format_exc()}"
        )
        return "error", error, detail, {}


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
    carry an empty dict — no work was timed.
    """

    cell: SweepCell
    key: str
    ratios: dict[str, float]
    cached: bool
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def status(self) -> str:
        """``"cache-hit"`` or ``"solved"``."""
        return "cache-hit" if self.cached else "solved"


@dataclass(frozen=True)
class SkippedCell:
    """One cell this run quarantined instead of resolving.

    ``reason`` is ``"failed"``: the cell exhausted its attempts (or
    failed deterministically), and a failure record in the store
    carries the error; triage with ``repro cache failures``.
    ``detail`` is the failure's label (e.g. its error class).
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
    timestamps (see :mod:`repro.runner.timing`).
    ``aborted`` marks the partial report attached to a raised sweep
    error — its results are real, but the run did not finish.
    """

    spec: SweepSpec
    results: list[CellResult]
    elapsed: float = 0.0
    jobs: int = 1
    skipped: list[SkippedCell] = field(default_factory=list)
    events: list[CellEvent] = field(default_factory=list)
    aborted: bool = False

    @property
    def solved(self) -> int:
        return sum(1 for result in self.results if not result.cached)

    @property
    def cached(self) -> int:
        return sum(1 for result in self.results if result.cached)

    @property
    def quarantined(self) -> int:
        """Cells this run quarantined (every skipped cell is one)."""
        return len(self.skipped)

    @property
    def complete(self) -> bool:
        """Whether every cell of the spec was resolved by this run."""
        return not self.skipped and not self.aborted

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

        An aborted report refuses to: it did not finish.  Rows touching
        a *quarantined* cell are omitted and counted in a note, which is
        the usable-partial-output contract of ``--keep-going``.
        """
        if self.aborted:
            raise ExperimentError(
                f"sweep {self.spec.experiment!r} aborted with {len(self.results)} of "
                f"{len(self.spec.cells)} cells resolved; no table to assemble"
            )
        spec = self.spec
        omitted = {
            tuple(_row_value(skip.cell, column, display=False) for column in spec.row_columns)
            for skip in self.skipped
        }
        value_columns = spec.value_columns()
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
        if self.skipped:
            base += f"; {self.quarantined} skipped ({self.quarantined} failed)"
        if self.aborted:
            base += " [aborted]"
        return base


@dataclass
class _Frontier:
    """One sweep's per-cell state machine, shared by every job count.

    The pump moves each runnable cell through :meth:`probe` (again at
    dispatch), a solve, and then :meth:`record` or :meth:`fail`.
    Everything the run knows about its cells — resolved and quarantined
    ones, attempt counts, and the error that aborts the sweep — lives
    here.
    """

    keys: list[str]
    events: EventLog
    policy: FailurePolicy
    cache: DirStore | None
    resolved: dict[int, CellResult] = field(default_factory=dict)
    failed: dict[int, SkippedCell] = field(default_factory=dict)
    attempts: dict[int, int] = field(default_factory=dict)
    first_error: Exception | None = None

    def probe(self, index: int, cell: SweepCell) -> bool:
        """Serve the cell from the store if present; record the hit."""
        hit = self.cache.get(cell) if self.cache is not None else None
        if hit is None:
            return False
        self.events.emit(self.keys[index], "cache-hit")
        self.resolved[index] = CellResult(cell=cell, key=self.keys[index], ratios=hit, cached=True)
        return True

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
        )
        if self.cache is not None:
            self.cache.put(cell, ratios)
            if index in self.attempts:
                # Success after failures: the record is stale — leaving
                # it would quarantine a now-working cell on resume.
                self.cache.clear_failure(cell)
        self.events.emit(self.keys[index], "solved")


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache: DirStore | None = None,
    solve: Callable[[SweepCell], dict[str, float]] = solve_cell,
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
        failures: the retry/timeout/quarantine policy (see
            :class:`~repro.runner.faults.FailurePolicy`); defaults to
            3 attempts with backoff, kind-default timeouts, and abort on
            the first quarantined cell.

    Returns:
        A :class:`SweepReport` whose ``results`` hold every resolved
        cell in ``spec.cells`` order; quarantined cells appear in
        ``skipped`` and flip ``complete`` to False.

    Raises:
        The first failing cell's error once quarantined cells exceed the
        policy's budget (in-flight work still drains and is cached
        first).  The raised exception carries a ``partial_report``
        attribute — an ``aborted`` :class:`SweepReport` with everything
        resolved so far — so callers can flush artifacts.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    # Each sweep starts from cold per-process memos so its cost never
    # depends on what an earlier in-process sweep happened to solve
    # (forked workers would otherwise inherit a warm parent memo too).
    clear_all_memos()
    started = time.perf_counter()
    keys = [cell_key(cell) for cell in spec.cells]
    frontier = _Frontier(
        keys, EventLog(), failures if failures is not None else FailurePolicy(), cache
    )
    worklist = [
        (index, cell) for index, cell in enumerate(spec.cells) if not frontier.probe(index, cell)
    ]

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

    if worklist and frontier.first_error is None:
        _pump(frontier, worklist, jobs, solve)

    first_error = frontier.first_error
    report = SweepReport(
        spec=spec,
        results=[frontier.resolved[index] for index in sorted(frontier.resolved)],
        elapsed=time.perf_counter() - started,
        jobs=jobs,
        skipped=[frontier.failed[index] for index in sorted(frontier.failed)],
        events=frontier.events.events,
        aborted=first_error is not None,
    )
    if first_error is not None:
        # Failing runs still carry everything they resolved: the CLI
        # flushes lifecycle events (and recovered results) from this.
        first_error.partial_report = report
        raise first_error
    return report


class _InProcessExecutor:
    """The ``jobs == 1`` pool: ``submit`` runs the cell at once, here.

    A single-job sweep stays in-process, so an injected ``solve`` needs
    no pickling, and anything the solve does not catch (such as
    ``KeyboardInterrupt``) propagates straight out of ``submit``.
    """

    def submit(self, fn: Callable, /, *args) -> Future:
        future: Future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """No-op: no work outlives its ``submit``."""


@dataclass
class _Lane:
    """One worker slot: a one-process pool that solves one cell at a time.

    ``last`` is the cell the lane was last given; the lane *holds* its
    (setup key, margin) until it takes another cell.  ``running`` is the
    cell in flight, with its ``future`` and watchdog ``deadline``.
    """

    pool: ProcessPoolExecutor | _InProcessExecutor | None = None
    last: SweepCell | None = None
    running: tuple[int, SweepCell] | None = None
    future: Future | None = None
    deadline: float | None = None

    def release(self) -> tuple[int, SweepCell]:
        """Take the in-flight cell off the lane."""
        running = self.running
        self.running = self.future = self.deadline = None
        return running

    def retire(self, *, kill: bool = False) -> None:
        """Shut the lane's pool down and join its threads.

        ``kill`` abandons a cell still running (a watchdog strike, or an
        interrupted sweep): it SIGKILLs the worker and does not wait.
        ``_processes`` is private executor state, but there is no public
        kill; without it the stuck worker leaks until the sweep exits,
        which is still bounded.  Joining an idle or dead lane's pool
        keeps its threads from racing interpreter exit.
        """
        if self.pool is None:
            return
        if kill:
            for pid in list(getattr(self.pool, "_processes", None) or {}):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.pool.shutdown(wait=not kill, cancel_futures=True)
        self.pool = None


def _pick(lane: _Lane, lanes: list[_Lane], queue: list[tuple[int, SweepCell]]) -> int | None:
    """The queue position of the cell an idle lane takes next, if any.

    Preference keeps setups warm: the lane's last (setup key, margin),
    then its last setup, then a setup no other lane holds; ties go to
    the earliest queued.  A cell whose (setup, margin) another lane
    holds is never taken.  A cell of a setup another lane holds is taken
    only by a lane that holds nothing yet, so idle lanes share a sweep's
    first setups but never build a second copy of a setup to take its
    last cells.
    """
    held = {
        (other.last.setup_key(), other.last.margin)
        for other in lanes
        if other is not lane and other.last is not None
    }
    held_setups = {setup for setup, _ in held}
    mine = None if lane.last is None else (lane.last.setup_key(), lane.last.margin)

    def rank(cell: SweepCell) -> int | None:
        setup = cell.setup_key()
        if (setup, cell.margin) in held:
            return None
        if mine is not None and setup == mine[0]:
            return 0 if cell.margin == mine[1] else 1
        if setup not in held_setups:
            return 2
        return 3 if mine is None else None

    ranked = ((rank(cell), position) for position, (_, cell) in enumerate(queue))
    return min(((r, p) for r, p in ranked if r is not None), default=(0, None))[1]


def _pump(
    frontier: _Frontier,
    worklist: list[tuple[int, SweepCell]],
    jobs: int,
    solve: Callable[[SweepCell], dict[str, float]],
) -> None:
    """The frontier pump: lanes, dispatch, retries, watchdog.

    ``jobs == 1`` runs one lane on an :class:`_InProcessExecutor`: each
    cell is re-probed just before it runs, the coordinator's LP-thread
    cap is left alone, and no deadline is set (there is no worker to
    kill).  ``jobs > 1`` runs up to ``jobs`` lanes, each on its own
    one-process pool.  A worker death (``BrokenProcessPool``) or a
    watchdog strike (the stuck worker is SIGKILLed) charges the lane's
    one cell and replaces that lane's pool only; the other lanes keep
    their workers and memos.  At any job count a cell waiting out its
    retry backoff does not hold up the others.
    """
    from repro.lp.backend import lp_threads

    keys, events = frontier.keys, frontier.events
    in_process = jobs == 1
    lanes = [_Lane() for _ in range(min(jobs, len(worklist)))]
    lp_budget = None if in_process else max(1, lp_threads() // len(lanes))
    queue = list(worklist)
    # Retries wait out their backoff in this heap (ready-time ordered)
    # without blocking dispatch of other work; the tickets break ties.
    retries: list[tuple[float, int, tuple[int, SweepCell]]] = []
    tickets = itertools.count()

    def schedule_retry(index: int, cell: SweepCell, delay: float) -> None:
        heapq.heappush(retries, (time.monotonic() + delay, next(tickets), (index, cell)))

    def strike(lane: _Lane, death: Exception | None) -> None:
        """The lane's worker died (``death``) or its cell blew its deadline (None).

        Either way the lane's one cell is charged an attempt and only
        this lane's worker is replaced.
        """
        index, cell = lane.release()
        lane.retire(kill=death is None)
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
            schedule_retry(index, cell, delay)

    def finish(lane: _Lane) -> None:
        try:
            status, value, detail, timings = lane.future.result()
        except Exception as death:  # BrokenProcessPool: the lane's worker died
            strike(lane, death)
            return
        index, cell = lane.release()
        if status == "ok":
            frontier.record(index, cell, value, timings)
            return
        events.emit(keys[index], "failed", detail=type(value).__name__)
        if not in_process:
            # Re-attach the worker-side context lost to pickling:
            # raising the error then chains the original traceback
            # and failing-cell identity as its cause.
            value.__cause__ = RuntimeError(detail)
        delay = frontier.fail(index, cell, value, detail or "")
        if delay is not None:
            schedule_retry(index, cell, delay)

    def dispatch(lane: _Lane) -> None:
        """Give an idle lane its next cell, if the frontier has one for it.

        The lane's idle worker can die between two cells: once its pool
        has noticed, it refuses the submit (``BrokenProcessPool``).
        That cell never ran, so it goes back to the front of the queue
        uncharged and the lane starts a fresh pool.
        """
        while queue and frontier.first_error is None:
            position = _pick(lane, lanes, queue)
            if position is None:
                return
            index, cell = queue.pop(position)
            # Re-probe: another sweep on the same store may have stored
            # the cell since the first probe.
            if frontier.probe(index, cell):
                continue
            lane.last = cell
            if lane.pool is None:
                lane.pool = (
                    _InProcessExecutor() if in_process else ProcessPoolExecutor(max_workers=1)
                )
            try:
                lane.future = lane.pool.submit(_solve_one, solve, keys[index], cell, lp_budget)
            except BrokenProcessPool:
                queue.insert(0, (index, cell))
                lane.retire()
                continue
            lane.running = (index, cell)
            budget = None if in_process else frontier.budget(cell)
            lane.deadline = None if budget is None else time.monotonic() + budget
            return

    try:
        while True:
            now = time.monotonic()
            while retries and retries[0][0] <= now and frontier.first_error is None:
                queue.append(heapq.heappop(retries)[2])
            for lane in lanes:
                if lane.future is None:
                    dispatch(lane)
            # Every queued cell has a lane that takes it once idle: the
            # lane holding its (setup, margin) or its setup, or any lane
            # if none does.  So with every lane idle the queue is empty
            # and only backoff sleepers can remain.
            busy = [lane for lane in lanes if lane.future is not None]
            if not busy:
                if frontier.first_error is not None or not retries:
                    break
                time.sleep(max(0.0, retries[0][0] - time.monotonic()))
                continue
            wake_times = [lane.deadline for lane in busy if lane.deadline is not None]
            if retries and frontier.first_error is None:
                wake_times.append(retries[0][0])
            timeout = (
                max(0.0, min(wake_times) - time.monotonic()) if wake_times else None
            )
            done, _ = wait(
                [lane.future for lane in busy], timeout=timeout, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            for lane in busy:
                if lane.future in done:
                    finish(lane)
                elif lane.deadline is not None and now >= lane.deadline:
                    strike(lane, None)
            # Keep pulling: cells already in flight when an error hits
            # still complete and cache their results; we just stop
            # feeding the frontier.
    finally:
        for lane in lanes:
            lane.retire(kill=lane.future is not None)
