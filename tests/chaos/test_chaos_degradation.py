"""Chaos: crashing handlers, quarantine, and active->normal degradation.

Every scenario asserts *byte correctness*: whatever faults are injected,
the functional result delivered to the host equals the fault-free
oracle — the degraded path is slower, never wrong.
"""

import pytest

from repro.cluster import ClusterConfig
from repro.cluster.system import System
from repro.faults import FaultPlan, HandlerFaults
from repro.net.packet import ActiveHeader
from repro.sim.units import us

pytestmark = pytest.mark.chaos

H_DOUBLE = 7
VECTOR = [3, 1, 4, 1, 5, 9, 2, 6]


def _config(handler_faults):
    return ClusterConfig(active=True, num_hosts=2, num_storage=0,
                         faults=FaultPlan(handler=handler_faults))


def _install_doubler(system, replace=False):
    """A handler that doubles the argument vector and ships it to host1."""

    def handler(ctx):
        yield from ctx.read(ctx.address, 512)
        doubled = [v * 2 for v in ctx.arg]
        yield from ctx.compute(len(doubled))
        yield from ctx.deallocate(ctx.address + 512)
        yield from ctx.send("host1", len(doubled) * 4, payload=doubled)

    system.switch.register_handler(H_DOUBLE, handler, replace=replace)


def _host_fallback(message):
    """Host-side recomputation of a degraded (raw) message."""
    return [v * 2 for v in message.payload]


def _run(system, num_messages, gap_ps=us(200), size_bytes=512,
         fallback="host1"):
    """host0 fires active messages; host1 collects whatever arrives.

    Returns the functional vectors host1 ends up with, applying the
    host-side fallback to raw (non-handler-produced) deliveries.
    """
    env = system.env
    results = []

    def sender(env):
        for i in range(num_messages):
            yield from system.hosts[0].hca.send(
                "sw0", size_bytes,
                active=ActiveHeader(handler_id=H_DOUBLE, address=0,
                                    fallback_dst=fallback),
                payload=list(VECTOR))
            yield env.timeout(gap_ps)

    def receiver(env, expected):
        for _ in range(expected):
            message = yield from system.hosts[1].hca.poll_receive()
            results.append(message)

    return env, sender, receiver, results


def test_contained_crash_degrades_to_byte_correct_fallback():
    system = System(_config(HandlerFaults(crash_invocations=((H_DOUBLE, 0),))))
    _install_doubler(system)
    env, sender, receiver, results = _run(system, num_messages=2)
    env.process(sender(env))
    proc = env.process(receiver(env, expected=2))
    env.run(until=proc)

    oracle = [v * 2 for v in VECTOR]
    # First message crashed: host1 got the raw vector and computes the
    # result itself.  Second ran on the switch.  Both byte-correct.
    outcomes = sorted(
        (tuple(m.payload if m.payload == oracle else _host_fallback(m))
         for m in results))
    assert outcomes == [tuple(oracle), tuple(oracle)]
    assert system.switch.degradation.contained_crashes == 1
    assert system.switch.degradation.fallback_messages == 1
    # One crash is under the default threshold: no quarantine.
    assert not system.switch.quarantined(H_DOUBLE)
    assert system.reliability_report()["handler_contained_crashes"] == 1.0


def test_repeated_crashes_quarantine_and_flush():
    system = System(_config(HandlerFaults(
        crash_invocations=((H_DOUBLE, 0), (H_DOUBLE, 1)),
        quarantine_threshold=2)))
    _install_doubler(system)

    def flush(ctx):
        yield from ctx.compute(1)
        yield from ctx.send("host1", 4, payload="FLUSH")

    system.switch.register_flush(H_DOUBLE, flush)
    env, sender, receiver, results = _run(system, num_messages=3)
    env.process(sender(env))
    # 2 crashed fallbacks + the flush message + 1 quarantine bypass.
    proc = env.process(receiver(env, expected=4))
    env.run(until=proc)

    oracle = [v * 2 for v in VECTOR]
    raw = [m for m in results if m.payload != "FLUSH"]
    assert len(raw) == 3
    # Every data message degraded to the raw vector: host recomputes.
    assert all(_host_fallback(m) == oracle for m in raw)
    assert [m.payload for m in results].count("FLUSH") == 1
    degradation = system.switch.degradation
    assert degradation.contained_crashes == 2
    assert degradation.quarantined_handlers == 1
    assert system.switch.quarantined(H_DOUBLE)
    assert system.switch.degraded_time_ps() > 0
    report = system.reliability_report()
    assert report["handler_quarantined"] == 1.0
    assert report["degraded_time_ps"] > 0
    assert report["injected_handler_crashes"] == 2.0


def test_crash_without_fallback_is_contained_but_lossy():
    """No fallback route: the message is lost, but the switch survives
    and keeps serving subsequent traffic."""
    system = System(_config(HandlerFaults(crash_invocations=((H_DOUBLE, 0),))))
    _install_doubler(system)
    env, sender, receiver, results = _run(system, num_messages=2,
                                          fallback=None)
    env.process(sender(env))
    proc = env.process(receiver(env, expected=1))
    env.run(until=proc)

    assert [m.payload for m in results] == [[v * 2 for v in VECTOR]]
    assert system.switch.degradation.contained_crashes == 1
    assert system.switch.degradation.fallback_messages == 0


def test_quarantine_without_fallback_drops_until_a_fresh_install():
    """A quarantined handler's message that names no fallback route has
    nowhere to degrade to: the switch counts and drops it, continuation
    packets included, instead of raising.  Installing a fresh handler
    (as a collective's retry epoch does) lifts the quarantine."""
    system = System(_config(HandlerFaults(
        crash_invocations=((H_DOUBLE, 0), (H_DOUBLE, 1)))))
    _install_doubler(system)
    env, switch = system.env, system.switch

    def send(size_bytes):
        yield from system.hosts[0].hca.send(
            "sw0", size_bytes,
            active=ActiveHeader(handler_id=H_DOUBLE, address=0),
            payload=list(VECTOR))
        yield env.timeout(us(200))

    def sender(env):
        for _ in range(2):
            yield from send(512)
        assert switch.quarantined(H_DOUBLE)
        yield from send(1024)
        assert switch.degradation.dropped_messages == 1
        _install_doubler(system, replace=True)
        assert not switch.quarantined(H_DOUBLE)
        yield from send(512)

    _, _, receiver, results = _run(system, num_messages=0)
    env.process(sender(env))
    proc = env.process(receiver(env, expected=1))
    env.run(until=proc)

    assert [m.payload for m in results] == [[v * 2 for v in VECTOR]]
    degradation = switch.degradation
    assert degradation.contained_crashes == 2
    assert degradation.quarantined_handlers == 1
    assert degradation.dropped_messages == 1
    assert degradation.fallback_messages == 0
    assert switch.degraded_time_ps() > 0
    assert switch.buffers.in_use == 0


def test_crash_on_multi_packet_message_reassembles_at_fallback():
    """A crashed multi-MTU stream: the raw first chunk re-emerges and the
    surviving continuation packets follow it to the fallback host, which
    reassembles them under the original message id."""
    system = System(_config(HandlerFaults(crash_invocations=((H_DOUBLE, 0),))))
    _install_doubler(system)
    env, sender, receiver, results = _run(system, num_messages=1,
                                          size_bytes=1024)
    env.process(sender(env))
    proc = env.process(receiver(env, expected=1))
    env.run(until=proc)

    assert len(results) == 1
    assert _host_fallback(results[0]) == [v * 2 for v in VECTOR]
    assert system.switch.degradation.contained_crashes == 1
    assert system.switch.degradation.fallback_messages == 1
    # Crash cleanup reclaimed the stream's buffers: none leaked.
    assert system.switch.buffers.in_use == 0


def test_atb_corruption_degrades_without_blaming_the_handler():
    system = System(_config(HandlerFaults(atb_corruption_rate=1.0)))
    _install_doubler(system)
    env, sender, receiver, results = _run(system, num_messages=2)
    env.process(sender(env))
    proc = env.process(receiver(env, expected=2))
    env.run(until=proc)

    oracle = [v * 2 for v in VECTOR]
    assert all(_host_fallback(m) == oracle for m in results)
    degradation = system.switch.degradation
    assert degradation.atb_corruptions == 2
    assert degradation.fallback_messages == 2
    # ATB parity is not the handler's fault: no crash count, no
    # quarantine — the handler would run fine on an intact mapping.
    assert degradation.contained_crashes == 0
    assert not system.switch.quarantined(H_DOUBLE)


def test_quarantined_traffic_is_slower_but_correct():
    """Degraded mode trades latency for availability: the bypass message
    reaches host1 later than a handler-processed one would have, but
    with identical bytes."""

    def run(handler_faults):
        system = System(_config(handler_faults))
        _install_doubler(system)
        env, sender, receiver, results = _run(system, num_messages=1)
        env.process(sender(env))
        proc = env.process(receiver(env, expected=1))
        env.run(until=proc)
        return env.now, results[0]

    clean_time, clean = run(HandlerFaults(crash_invocations=((63, 0),)))
    degraded_time, degraded = run(HandlerFaults(
        crash_invocations=((H_DOUBLE, 0),), quarantine_threshold=1))
    assert clean.payload == [v * 2 for v in VECTOR]
    assert _host_fallback(degraded) == clean.payload
    assert degraded_time != clean_time
