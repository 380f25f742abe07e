"""Outside-in layer tracing: spans around the program's public functions.

The tracer never edits the program.  :class:`Patcher` swaps a wrapper
onto every module attribute that *is* the original function object (so
``from X import f`` bindings are covered too) and onto class methods,
and puts every original back on :meth:`Patcher.restore`.  Each wrapped
call records one :class:`Span`: name, start, end, the span that was open
when it began (its parent) and the current trace id, which groups the
spans of one operation (a sweep cell, an audit evaluation).

Spans stay in memory; :func:`layer_table` folds them into per-layer
call counts, total time and self time (duration minus the time its
child spans cover), and :func:`chrome_trace` writes them in the Chrome
trace-event format (load in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    """One wrapped call; ``parent`` indexes the enclosing span, if any."""

    name: str
    start: float
    end: float
    parent: int | None
    trace_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Patcher:
    """Swaps callables where the program binds them, and swaps them back."""

    def __init__(self, package: str = "repro"):
        self.package = package
        self._undo: list[tuple[Any, str, Any]] = []

    def _modules(self):
        prefix = self.package + "."
        for name, module in list(sys.modules.items()):
            if module is not None and (name == self.package or name.startswith(prefix)):
                yield module

    def replace_function(self, original: Callable, replacement: Callable) -> int:
        """Rebind every loaded module attribute that is ``original``."""
        count = 0
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)
                    count += 1
        if count == 0:
            raise LookupError(f"{original.__qualname__} is bound in no {self.package} module")
        return count

    def replace_method(self, cls: type, attr: str, replacement: Callable) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Tracer:
    """Records spans for wrapped calls, nested by call order on one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.trace_id = ""
        self.paused = False
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.trace_id))
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self._open.pop()
        self.spans[index].end = self.clock()

    def wrap(
        self,
        name: str,
        function: Callable,
        on_result: Callable[[Any, tuple, dict], None] | None = None,
    ) -> Callable:
        """``function`` with a span named ``name`` around every call.

        ``on_result(result, args, kwargs)`` sees each return value, for
        counts that live in results (evaluations, rounds).
        """

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if self.paused:
                return function(*args, **kwargs)
            index = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    Self time is each span's duration minus the durations of its direct
    children, which (on one thread) lie inside it and do not overlap.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    table: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += span.duration - children[index]
    return table


def chrome_trace(spans: list[Span]) -> dict:
    """The spans as Chrome trace-event "complete" events (microseconds)."""
    origin = min((span.start for span in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "cat": span.name.rsplit(".", 1)[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"span": index, "parent": span.parent, "trace_id": span.trace_id},
        }
        for index, span in enumerate(spans)
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call (measured here)."""

    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - start - plain) / calls)
