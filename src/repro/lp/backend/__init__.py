"""The LP engine behind :mod:`repro.lp.model`, and the LP thread budget.

Every solve runs on scipy's vendored HiGHS, driven directly
(:mod:`repro.lp.backend.highs_backend`); :mod:`repro.lp.backend.base`
holds the program form and solution shape it speaks, and
:mod:`repro.lp.backend.scipy_backend` the ``linprog`` reference the
parity suite compares it with, called by name from tests.  Every solve
is an isolated cold solve, so results never depend on solve order.

Embarrassingly parallel LP sweeps (the worst-case oracle's per-edge
solves) use every usable core, :func:`lp_threads`; there is no knob for
it, and it is **not** fingerprinted, because isolated solves make
results independent of how work is partitioned.  The sweep runner
lowers the count per worker process with :func:`set_lp_threads` so
``--jobs N`` does not oversubscribe the host.

See ``docs/lp_backends.md`` for the full contract (options, statuses,
duals, isolated solves, threads, the reference and its parity suite).
"""

from __future__ import annotations

import os

#: LP sweep thread count installed by :func:`set_lp_threads`; ``None``
#: means every usable core.
_THREADS: int | None = None


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
