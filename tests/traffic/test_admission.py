"""The HCA admission queue: bounded depth, drop vs backpressure."""

import pytest

from repro.net import ChannelAdapter
from repro.sim import Environment
from repro.traffic import CLOSED, AdmissionQueue


def test_drop_policy_sheds_overflow_immediately():
    env = Environment()
    queue = AdmissionQueue(env, depth=2, policy="drop")
    outcomes = []

    def offerer(env):
        for i in range(5):
            admitted = yield from queue.offer(i)
            outcomes.append(admitted)

    env.process(offerer(env))
    env.run()
    # No consumer: the first two fill the queue, the rest shed.
    assert outcomes == [True, True, False, False, False]
    assert queue.offered == 5
    assert queue.admitted == 2
    assert queue.dropped == 3
    assert queue.drop_rate == pytest.approx(0.6)
    assert queue.queued == 2


def test_backpressure_blocks_until_a_slot_frees():
    env = Environment()
    queue = AdmissionQueue(env, depth=1, policy="backpressure")
    admitted_at = []
    taken = []

    def offerer(env):
        for i in range(3):
            yield from queue.offer(i)
            admitted_at.append(env.now)

    def consumer(env):
        while len(taken) < 3:
            yield env.timeout(100)
            entry = yield queue.take()
            taken.append(entry)

    env.process(offerer(env))
    env.process(consumer(env))
    env.run()
    assert queue.dropped == 0
    assert queue.admitted == 3
    assert [item for _, item in taken] == [0, 1, 2]
    # Offers 1 and 2 could only land after a take freed the single slot.
    assert admitted_at[0] == 0
    assert admitted_at[1] >= 100
    assert admitted_at[2] >= 200
    # The entry timestamp is the *offer* time, not the admit time:
    # item 1 was offered at t=0 and blocked until the t=100 take, so
    # its blocked wait counts as queue delay.  Item 2's offer only
    # started once item 1's resolved.
    offer_times = [offer_ps for offer_ps, _ in taken]
    assert offer_times[0] == 0
    assert offer_times[1] == 0
    assert offer_times[1] < admitted_at[1]


def test_close_drains_admitted_before_sentinel():
    env = Environment()
    queue = AdmissionQueue(env, depth=4, policy="drop")
    seen = []

    def offerer(env):
        for i in range(3):
            yield from queue.offer(i)
        queue.close(consumers=2)

    def worker(env):
        while True:
            entry = yield queue.take()
            if entry is CLOSED:
                seen.append("closed")
                return
            seen.append(entry[1])

    env.process(offerer(env))
    env.process(worker(env))
    env.process(worker(env))
    env.run()
    assert seen[-2:] == ["closed", "closed"]
    assert sorted(x for x in seen if x != "closed") == [0, 1, 2]


def test_snapshot_and_depth_signal():
    env = Environment()
    queue = AdmissionQueue(env, depth=8, policy="drop")

    def script(env):
        yield from queue.offer("a")
        yield from queue.offer("b")
        yield env.timeout(1000)
        yield queue.take()

    env.process(script(env))
    env.run()
    snap = queue.snapshot(env.now)
    assert snap["offered"] == 2.0
    assert snap["admitted"] == 2.0
    assert snap["dropped"] == 0.0
    assert snap["max_depth"] == 2
    assert 0.0 < snap["mean_depth"] <= 2.0


def test_validation():
    env = Environment()
    with pytest.raises(ValueError):
        AdmissionQueue(env, depth=0)
    with pytest.raises(ValueError):
        AdmissionQueue(env, depth=4, policy="tail-drop")


def test_hca_reliability_surfaces_admission_counters():
    env = Environment()
    adapter = ChannelAdapter(env, "host0")
    assert "admission_offered" not in adapter.reliability()
    queue = AdmissionQueue(env, depth=1, policy="drop")
    adapter.attach_admission(queue)

    def offerer(env):
        yield from queue.offer("x")
        yield from queue.offer("y")

    env.process(offerer(env))
    env.run()
    stats = adapter.reliability()
    assert stats["admission_offered"] == 2
    assert stats["admission_dropped"] == 1
