"""Bounded per-process LRU memo for expensive worker-side state.

Sweep lanes are long-lived processes that solve many cells one at a
time; cells that share a setup key reuse one
:class:`~repro.experiments.common.ExperimentSetup` through an
:class:`LruMemo`.  Eviction is least-recently-*used*, not
least-recently-inserted: a hit refreshes the entry, so two setups that
alternate on one worker (A, B, A, B, ...) both stay resident instead of
thrashing each other out as a FIFO would.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

T = TypeVar("T")

#: Every live memo in this process, so a sweep can reset them all.
#: Weak references: a dynamically created memo (tests, per-call helpers)
#: is collectable as usual instead of being pinned forever.
_ALL_MEMOS: "weakref.WeakSet[LruMemo]" = weakref.WeakSet()


def clear_all_memos() -> None:
    """Reset every :class:`LruMemo` in this process.

    :func:`~repro.runner.executor.run_sweep` calls this at entry so each
    sweep's cost is self-contained: setups memoized by an earlier
    in-process sweep (or driver call) never bleed into the next one,
    keeping benchmark timings order-independent.  Sharing *within* one
    sweep — across cells, and across kinds with equal setup keys — is
    unaffected.
    """
    for memo in _ALL_MEMOS:
        memo.clear()


class LruMemo:
    """A size-bounded memo with true LRU eviction.

    ``get_or_create(key, factory)`` returns the cached value for ``key``
    (marking it most-recently-used) or builds, stores, and returns a new
    one, evicting the least-recently-used entries to stay within
    ``limit``.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = limit
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        _ALL_MEMOS.add(self)

    def get_or_create(self, key: Hashable, factory: Callable[[], T]) -> T:
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key]  # type: ignore[return-value]
        value = factory()
        while len(self._entries) >= self.limit:
            self._entries.popitem(last=False)
        self._entries[key] = value
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[Hashable]:
        """Current keys, least-recently-used first (for tests/diagnostics)."""
        return list(self._entries)
