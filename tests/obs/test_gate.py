"""The tracing gate: ``Environment.run`` checks ``env.trace`` once, on
entry, and hands an attached collector the environment so that the
collector samples the event heap.  An untraced run never reaches a
collector, and a traced one does not keep the simulation alive."""

import gc
import weakref

import pytest

import repro
from repro.cluster import ClusterConfig, System
from repro.obs import PHASE_COUNTER, TraceCollector, TraceEvent
from repro.obs.trace import _HEAP_SAMPLE_EVERY
from repro.sim.core import Environment


def _storm(env, producers, events_each, trace=None):
    """Producers that each sleep ``events_each`` times, recording one
    span per sleep when ``trace`` is given."""
    def producer(env):
        for _ in range(events_each):
            yield env.timeout(100)
            if trace is not None:
                trace.span("producer", "tick", env.now - 100, 100)

    return [env.process(producer(env)) for _ in range(producers)]


def _heap(event):
    return event.component == "sim" and event.name == "event-heap"


def test_untraced_run_makes_no_collector_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run reached the trace collector")

    for method in ("__init__", "emit", "span", "instant", "counter",
                   "_make_room", "_enter_run", "_exit_run"):
        monkeypatch.setattr(TraceCollector, method, refuse)
    env = Environment()
    _storm(env, 4, 1_000)
    env.run()
    assert env.now == 1_000 * 100
    # Every emit site of an active case is gated as well.
    result = repro.run("grep", ["active"], scale=0.05)
    assert result.cases["active"].exec_ps > 0


@pytest.mark.parametrize("until", [None, 3_050, "event"])
def test_traced_run_samples_the_heap_on_entry_periodically_and_on_exit(
        until):
    env = Environment()
    collector = TraceCollector()
    env.trace = collector
    producers = _storm(env, 4, 100, trace=collector)
    env.run(until=producers[0] if until == "event" else until)

    events = collector.events
    samples = [i for i, event in enumerate(events) if _heap(event)]
    # On entry: the four producers' start events are queued.
    assert events[0] == TraceEvent(PHASE_COUNTER, "sim", "event-heap", 0, 0,
                                   (("value", 4),))
    # On exit: the last record, at the time the run stopped.
    last = events[-1]
    assert samples[-1] == len(events) - 1
    assert last.ts_ps == env.now
    assert last.get("value") == len(env._queue)
    if until == 3_050:
        assert env.now == 3_050
    # Periodically: a sample after every _HEAP_SAMPLE_EVERY records.
    gaps = [b - a - 1 for a, b in zip(samples, samples[1:])]
    assert gaps[:-1] == [_HEAP_SAMPLE_EVERY] * (len(gaps) - 1)
    assert 0 < gaps[-1] <= _HEAP_SAMPLE_EVERY
    assert len(samples) > 2
    assert all(0 <= events[i].get("value") <= 4 for i in samples)
    assert collector._env is None


def test_heap_samples_respect_the_capacity_bound():
    env = Environment()
    collector = TraceCollector(capacity=10)
    env.trace = collector
    _storm(env, 2, 50, trace=collector)
    env.run()
    assert len(collector) == 10
    assert _heap(collector.events[0])
    # 100 spans and the exit sample were offered; 9 spans fit.
    assert collector.dropped == 100 - 9 + 1


def _traced_system(collector):
    system = System(ClusterConfig())
    system.attach_trace(collector)
    return system


def test_collector_lets_go_of_the_environment_after_the_run():
    collector = TraceCollector()
    system = _traced_system(collector)
    env = system.env
    _storm(env, 2, 10, trace=collector)
    env.run()
    ref = weakref.ref(env)
    del system, env
    gc.collect()
    assert ref() is None
    # The trace outlives its simulation.
    assert collector.count("tick") == 20


def test_collector_lets_go_of_the_environment_when_the_run_raises():
    collector = TraceCollector()
    system = _traced_system(collector)
    env = system.env

    def crash(env):
        yield env.timeout(10)
        raise RuntimeError("handler crashed")

    env.process(crash(env))
    with pytest.raises(RuntimeError):
        env.run()
    # The exit sample is still taken, at the time of the failure.
    assert _heap(collector.events[-1]) and collector.events[-1].ts_ps == 10
    ref = weakref.ref(env)
    del system, env
    gc.collect()
    assert ref() is None
