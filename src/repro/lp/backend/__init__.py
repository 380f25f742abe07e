"""Solver-backend registry: named LP engines behind one interface.

Backends register under a name; :func:`get_backend` resolves the active
one from the ``REPRO_LP_BACKEND`` environment variable (default
``highs``, the direct vendored-HiGHS engine).  Because different
engines can legitimately return different optimal *vertices* for
degenerate LPs, the active backend name participates in sweep-cell
fingerprints (see :meth:`repro.runner.spec.SweepCell.fingerprint`), so
cached results never cross a backend boundary.

Selection knobs:

* ``REPRO_LP_BACKEND`` — ``highs`` (default), ``scipy``, or any
  third-party name registered via :func:`register_backend`.

Every solve is an isolated cold solve, so results never depend on
solve order.

Embarrassingly parallel LP sweeps (the worst-case oracle's per-edge
solves) use every usable core, :func:`lp_threads`; there is no knob for
it, and it is **not** fingerprinted, because isolated solves make
results independent of how work is partitioned.  The sweep runner
lowers the count per worker process with :func:`set_lp_threads` so
``--jobs N`` does not oversubscribe the host.

Registering a third-party backend::

    from repro.lp.backend import register_backend
    from repro.lp.backend.base import SolverBackend

    class MyBackend(SolverBackend):
        name = "mine"
        ...

    register_backend(MyBackend())
    # then: REPRO_LP_BACKEND=mine repro run fig9

See ``docs/lp_backends.md`` for the full contract (statuses, duals,
tolerances, isolated solves, thread safety).
"""

from __future__ import annotations

import os

from repro.lp.backend.base import (  # noqa: F401  (re-exported interface)
    ERROR,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    BackendInstance,
    BackendSolution,
    BackendUnavailable,
    LinearProgram,
    SolverBackend,
)

#: Environment variable naming the active backend.
BACKEND_ENV = "REPRO_LP_BACKEND"

DEFAULT_BACKEND = "highs"

_BACKENDS: dict[str, SolverBackend] = {}

#: LP sweep thread count installed by :func:`set_lp_threads`; ``None``
#: means every usable core.
_THREADS: int | None = None


def register_backend(backend: SolverBackend) -> SolverBackend:
    """Register ``backend`` under its ``name`` (later registrations win)."""
    _BACKENDS[backend.name] = backend
    return backend


def _ensure_builtin_backends() -> None:
    if _BACKENDS:
        return
    from repro.lp.backend.highs_backend import HighsBackend
    from repro.lp.backend.scipy_backend import ScipyBackend

    register_backend(HighsBackend())
    register_backend(ScipyBackend())


def backend_names() -> tuple[str, ...]:
    """All registered backend names, available ones first, then sorted."""
    _ensure_builtin_backends()
    return tuple(
        sorted(_BACKENDS, key=lambda name: (not _BACKENDS[name].available(), name))
    )


def available_backends() -> tuple[str, ...]:
    """The registered backends whose availability probe passes, sorted."""
    _ensure_builtin_backends()
    return tuple(
        sorted(name for name, backend in _BACKENDS.items() if backend.available())
    )


def active_backend_name() -> str:
    """The backend name the environment selects (not validated)."""
    return os.environ.get(BACKEND_ENV, DEFAULT_BACKEND).strip() or DEFAULT_BACKEND


def usable_cores() -> int:
    """The cores this process may run on (its CPU affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity API on this platform
        return os.cpu_count() or 1


def lp_threads() -> int:
    """Threads an LP sweep may use (default: :func:`usable_cores`)."""
    return _THREADS if _THREADS is not None else usable_cores()


def set_lp_threads(threads: int | None) -> None:
    """Cap LP sweep threads (``None`` restores the every-core default)."""
    global _THREADS
    _THREADS = threads


def get_backend(name: str | None = None) -> SolverBackend:
    """Resolve a backend by name (default: the environment's choice).

    Raises:
        BackendUnavailable: unknown name, or the backend's availability
            probe fails (missing package, no license).
    """
    _ensure_builtin_backends()
    resolved = (name or active_backend_name()).strip()
    backend = _BACKENDS.get(resolved)
    if backend is None:
        raise BackendUnavailable(
            f"unknown LP backend {resolved!r}; registered: "
            f"{', '.join(sorted(_BACKENDS))}"
        )
    if not backend.available():
        raise BackendUnavailable(
            f"LP backend {resolved!r} is registered but not available here "
            f"(missing package or license); available: "
            f"{', '.join(available_backends())}"
        )
    return backend
