"""The sweep executor's failure domain: classification, policy, injection.

Paper-scale sweeps run hundreds of LP/L-BFGS solves across
Topology-Zoo graphs; one numerically pathological cell must not sink an
hours-long run.  This module collects the three pieces the executor's
fault tolerance is built from:

**Error classification.**  :func:`is_transient` splits solve failures
into *transient* (OS errors, memory pressure, anything unknown — worth
retrying) and *deterministic* (``ValueError``-family bugs and the
repo's own :class:`~repro.exceptions.ReproError` hierarchy, including
LP infeasibility — retrying reproduces the failure, so the cell is
quarantined immediately).

**Failure policy.**  :class:`FailurePolicy` carries the executor's
retry/timeout/budget knobs: attempts per cell, exponential backoff
(:func:`backoff_delay` derives *deterministic* jitter from the cell key
so reruns are reproducible), the per-cell wall-clock budget, and how
many quarantined cells a sweep tolerates before aborting.
:func:`failure_record` builds the ``<key>.failed.json`` payload the
store persists so a *resumed* run consults past failures instead of
blindly re-attempting the same poison cell.

**Deterministic fault injection.**  The test substrate for all of the
above.  ``$REPRO_FAULTS`` (or ``repro …
--inject-fault``) holds ``;``-separated specs of ``,``-separated
``name=value`` fields::

    site=solve,action=raise,exc=ValueError,key=3fa9
    site=solve,action=kill,hash=1/3,times=1,state=.faults-state
    site=store.put,action=hang,seconds=2
    site=store.get,action=raise,exc=OSError,times=2

* ``site`` (required): where to fire — ``solve`` (inside the worker,
  before the cell solves) or ``store.get`` / ``store.put`` (the
  :class:`~repro.runner.store.DirStore` boundary).
* ``action`` (required): ``raise`` an exception (``exc=`` names the
  type), ``hang`` for ``seconds=`` (a stuck solver, for the watchdog),
  or ``kill`` — ``SIGKILL`` the calling process (a segfault/OOM stand-in
  that produces a real ``BrokenProcessPool``).
* selectors: ``key=<hex prefix>`` targets one cell; ``hash=r/m`` targets
  the deterministic slice of cells whose key hashes to ``r`` mod ``m``;
  neither matches every key at the site.
* ``times=N`` fires only the first N matching triggers *per cell* —
  per-cell counting keeps scenarios deterministic under concurrency,
  where a global count would depend on worker scheduling.  Counts live
  in-process by default; ``state=DIR`` moves them to append-only files
  under ``DIR`` so they survive worker kills and are shared across
  processes (required for ``action=kill``, which takes its in-process
  counter down with it).

Everything is keyed by cell-key hash and counted deterministically, so
an injected failure scenario replays identically run after run — which
is what lets CI assert exact recovery behavior.  With ``$REPRO_FAULTS``
unset, :func:`trigger` is one environment lookup: the fault-free fast
path pays nothing.
"""

from __future__ import annotations

import os
import signal
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.exceptions import (
    ExperimentError,
    InfeasibleError,
    ReproError,
    SolverError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.spec import SweepCell

#: Environment variable holding ``;``-separated fault specs.
FAULTS_ENV = "REPRO_FAULTS"

#: Injection points the runner instruments.
FAULT_SITES = ("solve", "store.get", "store.put")

#: What an injected fault does at its site.
FAULT_ACTIONS = ("raise", "hang", "kill")

#: Failure-record payload format tag; bump when the shape changes.
FAILURE_SCHEMA = "repro-failure-v1"

#: Attempts per cell before quarantine (CLI/policy default).
DEFAULT_MAX_ATTEMPTS = 3


class FaultError(ReproError):
    """A ``$REPRO_FAULTS`` / ``--inject-fault`` spec that cannot be parsed."""


class WorkerCrashError(ReproError):
    """A worker process died (segfault/OOM/kill) while solving a cell.

    Synthesized by the executor from ``BrokenProcessPool`` once chunk
    bisection has isolated the crash to a single cell; classified
    transient (a retry gets a fresh worker).
    """


class CellTimeoutError(ReproError):
    """A cell exceeded its wall-clock budget and its worker was killed.

    Classified transient: a timeout often reflects machine load, and
    the retry/quarantine counters bound how often it is re-attempted.
    """


#: Exception types ``action=raise`` can inject, by spec name.
_INJECTABLE_EXCEPTIONS: dict[str, type[Exception]] = {
    "OSError": OSError,
    "IOError": OSError,
    "TimeoutError": TimeoutError,
    "MemoryError": MemoryError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "ZeroDivisionError": ZeroDivisionError,
    "SolverError": SolverError,
    "InfeasibleError": InfeasibleError,
    "ExperimentError": ExperimentError,
}

#: Retry-worthy failure types, checked before the deterministic set so
#: the runner's own crash/timeout sentinels (ReproError subclasses)
#: stay retryable.
_TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    WorkerCrashError,
    CellTimeoutError,
    OSError,  # includes TimeoutError, ConnectionError, BrokenPipeError
    EOFError,
    MemoryError,
)

#: Failure types a retry will reproduce bit-for-bit: programming errors
#: and the repo's own exception hierarchy (LP infeasibility, malformed
#: experiment configs, solver contract violations are all functions of
#: the cell's inputs, which do not change between attempts).
_DETERMINISTIC_TYPES: tuple[type[BaseException], ...] = (
    ValueError,  # includes UnicodeError
    TypeError,
    KeyError,
    IndexError,
    AttributeError,
    ArithmeticError,  # includes ZeroDivisionError, OverflowError
    AssertionError,
    NotImplementedError,
    ReproError,
)


def is_transient(error: BaseException) -> bool:
    """Whether retrying ``error`` could plausibly succeed.

    Unknown exception types default to transient: quarantine still
    bounds the damage (``max_attempts`` tries), whereas misclassifying
    a recoverable glitch as deterministic would fail a cell that one
    retry would have saved.
    """
    if isinstance(error, _TRANSIENT_TYPES):
        return True
    if isinstance(error, _DETERMINISTIC_TYPES):
        return False
    return True


def error_class(error: BaseException) -> str:
    """``"transient"`` or ``"deterministic"`` for records and events."""
    return "transient" if is_transient(error) else "deterministic"


@dataclass(frozen=True)
class FailurePolicy:
    """How one sweep run treats failing cells.

    Attributes:
        max_attempts: solve attempts per cell before quarantine; only
            transient failures are retried at all, so deterministic
            errors quarantine on their first attempt regardless.
        backoff_base: first retry delay in seconds; doubles per attempt.
        backoff_cap: upper bound on any single retry delay.
        max_failures: quarantined cells tolerated before the sweep
            aborts with the first failing cell's error (default 0:
            any quarantine aborts, the historical behavior).
        keep_going: never abort on quarantined cells — they become
            ``SkippedCell(reason="failed")`` rows and the sweep
            completes partially (unbounded ``max_failures``).
        cell_timeout: per-cell wall-clock budget in seconds, overriding
            every kind's own default; ``None`` defers to
            :attr:`~repro.runner.spec.CellKind.timeout`, ``0`` disables
            the watchdog entirely.
    """

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    backoff_base: float = 0.05
    backoff_cap: float = 30.0
    max_failures: int = 0
    keep_going: bool = False
    cell_timeout: float | None = None


def backoff_delay(policy: FailurePolicy, key: str, attempt: int) -> float:
    """Exponential backoff with *deterministic* jitter for retry ``attempt``.

    The jitter term derives from the cell key and attempt number, not a
    RNG: concurrent retries still decorrelate (different keys, different
    delays) while any given failure scenario replays with identical
    timing — the property the fault-injection tests assert against.
    """
    base = policy.backoff_base * (2 ** max(0, attempt - 1))
    try:
        salt = int(key[:8], 16)
    except ValueError:
        salt = sum(key.encode())
    jitter = ((salt ^ (attempt * 0x9E3779B9)) % 997) / 997.0
    return min(policy.backoff_cap, base * (1.0 + jitter))


def failure_record(
    cell: "SweepCell",
    key: str,
    *,
    attempts: int,
    label: str,
    error: BaseException,
    detail: str = "",
) -> dict:
    """The ``<key>.failed.json`` payload persisted on quarantine.

    Self-describing like result entries (full fingerprint, so a record
    can be audited without the spec) plus everything triage needs: the
    cumulative attempt count resume arithmetic runs on, the error class
    and type, the worker-side traceback, and the host that gave up.
    """
    return {
        "schema": FAILURE_SCHEMA,
        "key": key,
        "experiment": cell.experiment,
        "fingerprint": cell.fingerprint(),
        "attempts": int(attempts),
        "error_class": label,
        "error_type": type(error).__name__,
        "message": str(error),
        "detail": detail,
        "host": socket.gethostname(),
        "updated_at": time.time(),
    }


@dataclass(frozen=True)
class FaultSpec:
    """One parsed injection directive (see the module docstring)."""

    site: str
    action: str
    exc: str = "OSError"
    seconds: float = 3600.0
    key: str = ""
    slot: tuple[int, int] | None = None  # (remainder, modulus) of hash=r/m
    times: int | None = None
    state: str = ""

    def matches(self, site: str, key: str) -> bool:
        if site != self.site:
            return False
        if self.key and not key.startswith(self.key):
            return False
        if self.slot is not None:
            remainder, modulus = self.slot
            try:
                value = int(key, 16)
            except ValueError:
                value = sum(key.encode())
            if value % modulus != remainder:
                return False
        return True


def parse_fault(text: str) -> FaultSpec:
    """Parse one ``name=value[,name=value...]`` spec; raises :class:`FaultError`."""
    fields: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep or not name.strip():
            raise FaultError(f"fault field {part!r} is not name=value (in {text!r})")
        fields[name.strip()] = value.strip()
    site = fields.pop("site", "")
    if site not in FAULT_SITES:
        raise FaultError(
            f"fault spec {text!r} needs site= one of {', '.join(FAULT_SITES)}"
        )
    action = fields.pop("action", "")
    if action not in FAULT_ACTIONS:
        raise FaultError(
            f"fault spec {text!r} needs action= one of {', '.join(FAULT_ACTIONS)}"
        )
    exc = fields.pop("exc", "OSError")
    if action == "raise" and exc not in _INJECTABLE_EXCEPTIONS:
        raise FaultError(
            f"fault spec {text!r}: unknown exc={exc!r} "
            f"(known: {', '.join(sorted(_INJECTABLE_EXCEPTIONS))})"
        )
    try:
        seconds = float(fields.pop("seconds", "3600"))
    except ValueError as error:
        raise FaultError(f"fault spec {text!r}: bad seconds= ({error})") from None
    key = fields.pop("key", "").lower()
    if key and not all(ch in "0123456789abcdef" for ch in key):
        raise FaultError(f"fault spec {text!r}: key= must be a hex cell-key prefix")
    slot: tuple[int, int] | None = None
    hash_spec = fields.pop("hash", "")
    if hash_spec:
        remainder, sep, modulus = hash_spec.partition("/")
        if not sep or not remainder.isdigit() or not modulus.isdigit() or int(modulus) < 1:
            raise FaultError(f"fault spec {text!r}: hash= must be r/m (e.g. 1/3)")
        slot = (int(remainder) % int(modulus), int(modulus))
    times: int | None = None
    if "times" in fields:
        times_text = fields.pop("times")
        if not times_text.isdigit() or int(times_text) < 1:
            raise FaultError(f"fault spec {text!r}: times= must be a positive integer")
        times = int(times_text)
    state = fields.pop("state", "")
    if fields:
        raise FaultError(
            f"fault spec {text!r}: unknown field(s) {', '.join(sorted(fields))}"
        )
    return FaultSpec(
        site=site, action=action, exc=exc, seconds=seconds,
        key=key, slot=slot, times=times, state=state,
    )


def parse_faults(text: str) -> tuple[FaultSpec, ...]:
    """Parse a full ``;``-separated ``$REPRO_FAULTS`` value."""
    return tuple(
        parse_fault(part) for part in text.split(";") if part.strip()
    )


# Parsed-plan cache: (env text, parsed specs).  The env var is re-read on
# every trigger so tests can flip it, but parsing only happens when the
# text actually changes.
_plan: tuple[str, tuple[FaultSpec, ...]] = ("", ())

# In-process fallback trigger counters for specs without a state dir.
_local_counts: dict[tuple[int, str, str], int] = {}


def active_faults() -> tuple[FaultSpec, ...]:
    """The parsed specs for the current ``$REPRO_FAULTS`` value."""
    global _plan
    text = os.environ.get(FAULTS_ENV, "")
    if not text:
        return ()
    if text != _plan[0]:
        _plan = (text, parse_faults(text))
    return _plan[1]


def _consume(spec: FaultSpec, index: int, site: str, key: str) -> bool:
    """Count one trigger of ``spec``; True while within its ``times`` budget.

    With a state dir, the count is the size of an append-only file —
    one O_APPEND byte per trigger is atomic on POSIX, so concurrent
    workers share one monotone counter that survives ``action=kill``
    taking its process down.
    """
    assert spec.times is not None
    if spec.state:
        path = Path(spec.state).expanduser() / f"fault-{index}-{site}-{key}"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "ab") as handle:
            handle.write(b"x")
            handle.flush()
            count = handle.tell()
        return count <= spec.times
    token = (index, site, key)
    _local_counts[token] = _local_counts.get(token, 0) + 1
    return _local_counts[token] <= spec.times


def _fire(spec: FaultSpec, site: str, key: str) -> None:
    if spec.action == "raise":
        raise _INJECTABLE_EXCEPTIONS[spec.exc](
            f"injected {spec.exc} at {site} (cell {key[:12]})"
        )
    if spec.action == "hang":
        time.sleep(spec.seconds)
        return
    os.kill(os.getpid(), signal.SIGKILL)


def trigger(site: str, key: str) -> None:
    """Fire any matching injected fault; a no-op unless ``$REPRO_FAULTS`` is set.

    The instrumented call sites (worker solve loop, store get/put) call
    this unconditionally — the unset-env early
    return is a single dict lookup, so production sweeps pay nothing.
    """
    if not os.environ.get(FAULTS_ENV):
        return
    for index, spec in enumerate(active_faults()):
        if not spec.matches(site, key):
            continue
        if spec.times is not None and not _consume(spec, index, site, key):
            continue
        _fire(spec, site, key)
