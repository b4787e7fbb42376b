"""Differential suite: the lazy ``TraceCollector`` against the eager oracle.

Random interleavings of spans, instants, counters, prebuilt events and
clears, with reads dropped in between, run on both collectors.  Every
read must agree: the lazy collector may defer building events, never
change them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import PHASE_INSTANT, PHASE_SPAN, TraceCollector, TraceEvent

from .eager_collector import EagerCollector

COMPONENTS = ("sim", "link0", "sw0-cpu0")
NAMES = ("event-heap", "link.xmit", "handler", "disk.read")
KEYS = ("bytes", "seq", "msg", "a", "zz", "outcome")

timestamps = st.integers(min_value=-2, max_value=40)
kwargs = st.lists(
    st.tuples(st.sampled_from(KEYS),
              st.one_of(st.integers(-5, 5), st.sampled_from(("ok", "drop")))),
    max_size=4, unique_by=lambda kv: kv[0])
events = st.builds(
    TraceEvent, st.sampled_from((PHASE_SPAN, PHASE_INSTANT, "C")),
    st.sampled_from(COMPONENTS), st.sampled_from(NAMES),
    st.integers(0, 40), st.integers(0, 9),
    kwargs.map(tuple))

READS = ("events", "len", "iter", "select", "count", "summary",
         "components", "names", "span_ps", "dropped")

operations = st.one_of(
    st.tuples(st.just("span"), st.sampled_from(COMPONENTS),
              st.sampled_from(NAMES), timestamps, timestamps, kwargs),
    st.tuples(st.just("instant"), st.sampled_from(COMPONENTS),
              st.sampled_from(NAMES), timestamps, kwargs),
    st.tuples(st.just("counter"), st.sampled_from(COMPONENTS),
              st.sampled_from(NAMES), timestamps, st.integers(0, 99)),
    st.tuples(st.just("emit"), events),
    st.just(("clear",)),
    st.tuples(st.just("read"), st.sampled_from(READS),
              st.sampled_from((None,) + NAMES),
              st.sampled_from((None,) + COMPONENTS),
              st.sampled_from((None, PHASE_SPAN, PHASE_INSTANT, "C"))),
)


def _call(collector, op):
    kind = op[0]
    if kind == "span":
        _, component, name, ts, dur, args = op
        collector.span(component, name, ts, dur, **dict(args))
    elif kind == "instant":
        _, component, name, ts, args = op
        collector.instant(component, name, ts, **dict(args))
    elif kind == "counter":
        _, component, name, ts, value = op
        collector.counter(component, name, ts, value)
    elif kind == "emit":
        collector.emit(op[1])
    else:
        collector.clear()


def _read(collector, what, name=None, component=None, phase=None):
    if what == "events":
        return list(collector.events)
    if what == "len":
        return len(collector)
    if what == "iter":
        return list(collector)
    if what == "select":
        return collector.select(name=name, component=component, phase=phase)
    if what == "count":
        return collector.count(name)
    if what == "dropped":
        return collector.dropped
    return getattr(collector, what)()


@settings(max_examples=300, deadline=None)
@given(capacity=st.sampled_from((None, 0, 1, 2, 3, 7)),
       ops=st.lists(operations, max_size=60))
def test_lazy_collector_reads_equal_the_eager_oracle(capacity, ops):
    lazy, eager = TraceCollector(capacity=capacity), EagerCollector(capacity)
    for op in ops:
        if op[0] == "read":
            assert _read(lazy, *op[1:]) == _read(eager, *op[1:]), op
            continue
        raised = []
        for collector in (lazy, eager):
            try:
                _call(collector, op)
            except ValueError:
                raised.append(collector)
        assert raised in ([], [lazy, eager]), op
        if raised:
            # A rejected record leaves no trace: nothing kept or dropped.
            assert (len(lazy), lazy.dropped) == (len(eager), eager.dropped)
    for what in READS:
        assert _read(lazy, what) == _read(eager, what), what
    assert lazy.capacity == eager.capacity


def test_negative_timestamps_raise_at_the_call():
    collector = TraceCollector()
    with pytest.raises(ValueError):
        collector.span("a", "x", -1, 0)
    with pytest.raises(ValueError):
        collector.span("a", "x", 0, -1)
    with pytest.raises(ValueError):
        collector.instant("a", "x", -1)
    with pytest.raises(ValueError):
        collector.counter("a", "x", -1, 0)
    assert len(collector) == 0 and collector.dropped == 0
    assert collector.events == []
