"""Span bookkeeping, self time, binding-site patching and the trace export."""

import sys
import types

import pytest

from tracer import Patcher, Span, Tracer, chrome_trace, layer_table


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 9].
    spans = [
        Span("a", 0.0, 10.0, None, "op"),
        Span("b", 1.0, 4.0, 0, "op"),
        Span("c", 2.0, 3.0, 1, "op"),
        Span("b", 5.0, 9.0, 0, "op"),
    ]
    table = layer_table(spans)
    assert table["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert table["b"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert table["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_wrapped_calls_nest_by_call_order():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: "x")

    def middle():
        return leaf() + leaf()

    outer = tracer.wrap("outer", tracer.wrap("middle", middle))
    tracer.trace_id = "cell-1"
    assert outer() == "xx"
    names = [(span.name, span.parent, span.trace_id) for span in tracer.spans]
    assert names == [
        ("outer", None, "cell-1"),
        ("middle", 0, "cell-1"),
        ("leaf", 1, "cell-1"),
        ("leaf", 1, "cell-1"),
    ]
    table = layer_table(tracer.spans)
    # Ticks: outer 0..7, middle 1..6, leaves 2..3 and 4..5.
    assert table["outer"]["self_s"] == 2.0
    assert table["middle"]["self_s"] == 3.0
    assert table["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_failing_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert len(tracer.spans) == 1 and tracer.spans[0].end >= tracer.spans[0].start
    tracer.wrap("after", lambda: None)()
    assert tracer.spans[1].parent is None


def test_paused_tracer_records_nothing():
    tracer = Tracer()
    tracer.paused = True
    assert tracer.wrap("quiet", lambda: 3)() == 3
    assert tracer.spans == []


@pytest.fixture
def fake_package():
    base = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")

    def f():
        return "original"

    class Thing:
        def method(self):
            return "method"

    inner.f, inner.Thing = f, Thing
    base.f = f  # a ``from fakepkg.inner import f`` binding
    sys.modules.update({"fakepkg": base, "fakepkg.inner": inner})
    yield base, inner, f, Thing
    del sys.modules["fakepkg"], sys.modules["fakepkg.inner"]


def test_patcher_rebinds_every_binding_and_restores(fake_package):
    base, inner, f, thing = fake_package
    original_method = thing.__dict__["method"]
    patcher = Patcher("fakepkg")
    assert patcher.replace_function(f, lambda: "wrapped") == 2
    patcher.replace_method(thing, "method", lambda self: "wrapped method")
    assert base.f() == inner.f() == "wrapped"
    assert thing().method() == "wrapped method"
    patcher.restore()
    assert base.f is f and inner.f is f
    assert thing.__dict__["method"] is original_method


def test_patcher_refuses_a_function_bound_nowhere(fake_package):
    with pytest.raises(LookupError):
        Patcher("fakepkg").replace_function(lambda: None, lambda: None)


def test_chrome_trace_uses_microseconds_from_the_first_span():
    spans = [Span("lp.model.solve", 2.0, 2.5, None, "pass-0"), Span("x", 2.1, 2.2, 0, "pass-0")]
    events = chrome_trace(spans)["traceEvents"]
    assert events[0]["ph"] == "X" and events[0]["cat"] == "lp.model"
    assert events[0]["ts"] == 0.0 and events[0]["dur"] == pytest.approx(5e5)
    assert events[1]["args"] == {"span": 1, "parent": 0, "trace_id": "pass-0"}
