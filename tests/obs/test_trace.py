"""TraceEvent/TraceCollector semantics: typing, queries, capacity."""

import pytest

from repro.obs import (
    PHASE_COUNTER,
    PHASE_INSTANT,
    PHASE_SPAN,
    TraceCollector,
    TraceEvent,
)


def test_event_fields_and_category():
    event = TraceEvent(PHASE_SPAN, "sw0-cpu0", "link.xmit", ts_ps=100,
                       dur_ps=50, args=(("bytes", 512),))
    assert event.end_ps == 150
    assert event.category == "link"
    assert event.get("bytes") == 512
    assert event.get("missing", 7) == 7


def test_event_validation():
    with pytest.raises(ValueError):
        TraceEvent("Z", "c", "n", ts_ps=0)
    with pytest.raises(ValueError):
        TraceEvent(PHASE_INSTANT, "c", "n", ts_ps=-1)
    with pytest.raises(ValueError):
        TraceEvent(PHASE_SPAN, "c", "n", ts_ps=0, dur_ps=-1)


def test_events_are_frozen_and_comparable():
    a = TraceCollector()
    b = TraceCollector()
    for c in (a, b):
        c.span("disk0", "disk.read", 10, 20, bytes=512)
        c.instant("disk0", "disk.done", 30)
    assert list(a) == list(b)
    with pytest.raises(AttributeError):
        a.events[0].ts_ps = 99


def test_collector_emit_kinds_and_args_sorted():
    c = TraceCollector()
    c.span("link0", "link.xmit", 0, 10, seq=1, bytes=64)
    c.instant("link0", "link.deliver", 10, seq=1)
    c.counter("sim", "event-heap", 5, 3)
    phases = [e.phase for e in c]
    assert phases == [PHASE_SPAN, PHASE_INSTANT, PHASE_COUNTER]
    # kwargs are canonicalized to sorted pairs
    assert c.events[0].args == (("bytes", 64), ("seq", 1))
    assert c.events[2].get("value") == 3


def test_select_and_window():
    c = TraceCollector()
    c.span("a", "x.one", 0, 10)
    c.span("b", "x.one", 5, 20)
    c.instant("a", "x.two", 40)
    assert len(c.select(name="x.one")) == 2
    assert len(c.select(component="a")) == 2
    assert len(c.select(name="x.one", component="b")) == 1
    assert c.select(phase=PHASE_INSTANT)[0].name == "x.two"
    assert c.span_ps() == (0, 40)
    assert c.components() == ["a", "b"]
    assert sorted(c.names()) == ["x.one", "x.two"]


def test_capacity_drops_newest_and_counts():
    c = TraceCollector(capacity=2)
    for i in range(5):
        c.instant("a", "tick", i)
    assert len(c) == 2
    # the survivors are the oldest events, drops count the rest
    assert [e.ts_ps for e in c] == [0, 1]
    assert c.dropped == 3
    assert c.summary()["dropped"] == 3


def test_clear_resets_everything():
    c = TraceCollector(capacity=1)
    c.instant("a", "tick", 0)
    c.instant("a", "tick", 1)
    c.clear()
    assert len(c) == 0 and c.dropped == 0
    c.instant("a", "tick", 2)
    assert len(c) == 1


def test_every_event_constructor_validates():
    event = TraceEvent(PHASE_SPAN, "c", "n", 5, 2, (("a", 1),))
    assert TraceEvent._make(tuple(event)) == event
    assert event._replace(ts_ps=7).ts_ps == 7
    with pytest.raises(ValueError):
        TraceEvent._make(("Z", "c", "n", 0, 0, ()))
    with pytest.raises(ValueError):
        event._replace(dur_ps=-1)
    with pytest.raises(ValueError):
        event._replace(phase="Z")
    with pytest.raises(AttributeError):
        event.args = ()


def test_event_is_a_named_tuple_of_its_fields():
    event = TraceEvent(PHASE_INSTANT, "c", "n", 5)
    assert event == (PHASE_INSTANT, "c", "n", 5, 0, ())
    assert hash(event) == hash((PHASE_INSTANT, "c", "n", 5, 0, ()))
    assert {event, TraceEvent(PHASE_INSTANT, "c", "n", 5)} == {event}
    assert event.as_dict() == {"phase": PHASE_INSTANT, "component": "c",
                               "name": "n", "ts_ps": 5, "dur_ps": 0}


def test_events_are_built_on_first_read():
    c = TraceCollector(capacity=3)
    for i in range(5):
        c.instant("a", "tick", i, seq=i)
    assert len(c) == 3 and c.dropped == 2
    assert c._built == []          # counting built nothing
    first = c.events
    assert [e.get("seq") for e in first] == [0, 1, 2]
    assert c.events is first       # built once, then cached
    assert c == c and c != TraceCollector(capacity=3)
