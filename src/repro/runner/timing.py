"""Per-cell phase timing and lifecycle events for sweep solves.

The benchmark harness wants to know not just how long a cell took but
*where* the time went: building the margin-independent setup, running
the robust optimization, evaluating routings against the worst-case
oracle.  Those phases live deep inside the cell-kind solve functions,
so instrumentation is a thread-local recorder: the executor installs a
sink around each solve (:func:`timed_solve`), and instrumented code
wraps its hot sections in :func:`phase`.  With no sink installed —
every non-benchmark caller — :func:`phase` is a no-op, so drivers and
tests pay nothing.

Sweeps additionally want to know *what happened* to each cell —
served from the store, solved, retried, timed out, quarantined.
:class:`EventLog` records those transitions
as structured :class:`CellEvent` records (cell key, event name, epoch
timestamp, optional detail); the executor emits them from the
coordinating process and threads the log into sweep reports, JSON
artifacts, and ``BENCH_*.json`` payloads.

Durations come from :func:`time.perf_counter` (monotonic, not subject
to wall-clock adjustment).  Re-entering a phase accumulates; nesting
*different* phases counts the inner one inside the outer, so the
pipeline phases are kept disjoint (setup / solve / evaluate).  Named
*sub-phases* deliberately use this nesting: ``"weight_step"`` (the local
search's neighborhood step) is recorded inside "solve", so its seconds
are a breakdown of solve time, not additive to it.
The recorder is per-thread and travels with the worker process, so
parallel sweeps time each cell exactly like serial ones.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

#: The lifecycle transitions the executor emits, in rough order of
#: occurrence.  "cache-hit": served from the store without solving;
#: "solved": result produced and stored; "failed": one solve attempt
#: raised; "retried": a failed/crashed/timed-out cell
#: was re-queued with backoff; "timed-out": the cell exceeded its
#: wall-clock budget and the watchdog killed its lane's worker;
#: "quarantined": attempts are exhausted (or the failure is
#: deterministic) — a failure record is persisted and the cell becomes
#: a ``SkippedCell(reason="failed")``.
LIFECYCLE_EVENTS = (
    "cache-hit", "solved", "failed", "retried", "timed-out", "quarantined",
)


@dataclass(frozen=True)
class CellEvent:
    """One structured lifecycle transition for one cell.

    ``event`` is one of :data:`LIFECYCLE_EVENTS`.  ``at`` is epoch
    seconds (``time.time``), so a run's events line up with other
    timestamped records; correctness never depends on event order.
    """

    key: str
    event: str
    at: float
    detail: str = ""

    def as_payload(self) -> dict:
        record = {"key": self.key, "event": self.event, "at": round(self.at, 3)}
        if self.detail:
            record["detail"] = self.detail
        return record


@dataclass
class EventLog:
    """An append-only list of :class:`CellEvent`s for one sweep run."""

    events: list[CellEvent] = field(default_factory=list)

    def emit(self, key: str, event: str, detail: str = "") -> CellEvent:
        record = CellEvent(key=key, event=event, at=time.time(), detail=detail)
        self.events.append(record)
        return record

#: Key under which :func:`timed_solve` stores the whole solve's duration.
TOTAL = "total"

_LOCAL = threading.local()


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Accumulate the block's duration under ``name`` in the active sink.

    No-op (zero bookkeeping beyond one attribute lookup) when no sink is
    installed, so instrumented library code is safe to call from
    anywhere.
    """
    sink = getattr(_LOCAL, "sink", None)
    if sink is None:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        sink[name] = sink.get(name, 0.0) + (time.perf_counter() - started)


@contextmanager
def record_phases(sink: dict[str, float]) -> Iterator[dict[str, float]]:
    """Install ``sink`` as this thread's phase collector for the block.

    The previous sink (if any) is restored on exit, so nested recordings
    don't leak into each other.
    """
    previous = getattr(_LOCAL, "sink", None)
    _LOCAL.sink = sink
    try:
        yield sink
    finally:
        _LOCAL.sink = previous


def timed_solve(solve: Callable[..., T], *args, **kwargs) -> tuple[T, dict[str, float]]:
    """Run ``solve`` under a fresh recorder; return (result, timings).

    The timings dict maps each recorded phase to its accumulated seconds
    plus :data:`TOTAL` for the entire call, so unattributed time is
    visible as ``total - sum(phases)``.
    """
    timings: dict[str, float] = {}
    started = time.perf_counter()
    with record_phases(timings):
        result = solve(*args, **kwargs)
    timings[TOTAL] = time.perf_counter() - started
    return result, timings
