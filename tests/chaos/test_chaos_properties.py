"""Chaos: property-based conservation laws for the recovery protocols.

Hypothesis drives random fault rates and seeds; the invariants must
hold for *every* schedule, not just hand-picked ones:

* link credits are conserved — every drop, corruption, and
  retransmission returns its credit, and delivery is exactly-once;
* disk retries balance — each transient error is paid for by exactly
  one retry, and successful requests account their bytes exactly once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import DiskFaults, FaultInjector, FaultPlan, LinkFaults
from repro.io import Disk
from repro.net import Link, LinkConfig, Packet
from repro.sim import Environment
from repro.sim.units import us

pytestmark = pytest.mark.chaos

rates = st.floats(min_value=0.0, max_value=0.4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(drop_rate=rates, bit_error_rate=rates, seed=seeds,
       npackets=st.integers(min_value=1, max_value=12),
       credits=st.integers(min_value=1, max_value=4))
def test_link_credit_and_delivery_conservation(drop_rate, bit_error_rate,
                                               seed, npackets, credits):
    env = Environment()
    link = Link(env, "l", LinkConfig(credits=credits))
    # backoff_factor=1.0 keeps huge retry counts finite in float space;
    # max_retries is high enough that exhaustion is impossible at these
    # rates, so every packet must eventually be delivered.
    link.attach_faults(FaultInjector(FaultPlan(link=LinkFaults(
        drop_rate=drop_rate, bit_error_rate=bit_error_rate,
        ack_timeout_ps=us(1), backoff_factor=1.0, max_retries=200)),
        seed=seed))
    received = []

    def sender(env):
        for _ in range(npackets):
            yield from link.send(Packet("a", "b", payload_bytes=256))

    def receiver(env):
        for _ in range(npackets):
            packet = yield from link.receive()
            received.append(packet)

    env.process(sender(env))
    proc = env.process(receiver(env))
    env.run(until=proc)

    stats = link.stats
    # Exactly-once delivery of every intact packet.
    assert stats.packets_delivered == npackets
    assert len(received) == npackets
    assert not any(p.corrupted for p in received)
    # Every serialized copy lands in exactly one bucket.
    assert stats.packets_sent == (stats.packets_delivered +
                                  stats.packets_dropped +
                                  stats.packets_corrupted)
    # Every loss triggered exactly one retransmission.
    assert stats.retransmits == stats.packets_dropped + stats.packets_corrupted
    # All credits came home.
    link.assert_credit_conservation()
    assert link._credits.level == credits


@settings(max_examples=30, deadline=None)
@given(read_error_rate=st.floats(min_value=0.0, max_value=0.5), seed=seeds,
       nreq=st.integers(min_value=1, max_value=10))
def test_disk_retry_conservation(read_error_rate, seed, nreq):
    env = Environment()
    disk = Disk(env, "d")
    # max_retries=64 makes exhaustion impossible at rate <= 0.5.
    disk.attach_faults(FaultInjector(FaultPlan(disk=DiskFaults(
        read_error_rate=read_error_rate, retry_backoff_ps=1,
        max_retries=64)), seed=seed))

    at_ps = 0
    for i in range(nreq):
        _, at_ps = disk.access_burst(at_ps, i * 4096, 1024, write=False)

    stats = disk.stats
    # Each transient error is paid for by exactly one replay.
    assert stats.retries == stats.transient_errors
    # Successful requests account their bytes exactly once.
    assert stats.bytes_read == nreq * 1024
    assert stats.requests == nreq


@settings(max_examples=20, deadline=None)
@given(drop_rate=rates, seed=seeds)
def test_link_schedule_is_a_pure_function_of_the_seed(drop_rate, seed):
    def run():
        injector = FaultInjector(
            FaultPlan(link=LinkFaults(drop_rate=drop_rate)), seed=seed)
        outcomes = tuple(injector.link_outcome("l") for _ in range(50))
        return outcomes, injector.fingerprint()

    assert run() == run()
