"""Cross-layer integration scenarios.

Each test assembles a nontrivial system from public APIs and checks an
end-to-end property that no single-layer test covers.
"""

import pytest

from repro.net import ActiveHeader, ChannelAdapter, Link, Message
from repro.sim import Environment
from repro.sim.units import us
from repro.switch import ActiveSwitch


def build_two_switch_fabric(env):
    """host -- sw0 -- sw1 -- sink, both switches active."""
    sw0 = ActiveSwitch(env, "sw0")
    sw1 = ActiveSwitch(env, "sw1")
    host = ChannelAdapter(env, "host")
    sink = ChannelAdapter(env, "sink")

    h_sw0 = Link(env, "host->sw0")
    sw0_h = Link(env, "sw0->host")
    host.attach(tx_link=h_sw0, rx_link=sw0_h)
    sw0.connect(0, tx_link=sw0_h, rx_link=h_sw0)

    sw0_sw1 = Link(env, "sw0->sw1")
    sw1_sw0 = Link(env, "sw1->sw0")
    sw0.connect(1, tx_link=sw0_sw1, rx_link=sw1_sw0)
    sw1.connect(0, tx_link=sw1_sw0, rx_link=sw0_sw1)

    sw1_sink = Link(env, "sw1->sink")
    sink_sw1 = Link(env, "sink->sw1")
    sw1.connect(1, tx_link=sw1_sink, rx_link=sink_sw1)
    sink.attach(tx_link=sink_sw1, rx_link=sw1_sink)

    sw0.routing.add("host", 0)
    sw0.routing.add("sw1", 1)
    sw0.routing.add("sink", 1)
    sw1.routing.add("sw0", 0)
    sw1.routing.add("host", 0)
    sw1.routing.add("sink", 1)
    return sw0, sw1, host, sink


def test_handler_cascade_across_switches():
    """A handler on sw0 forwards an active message that dispatches a
    second handler on sw1 — the multi-level pattern the reduction tree
    uses, verified in isolation."""
    env = Environment()
    sw0, sw1, host, sink = build_two_switch_fabric(env)

    def stage_one(ctx):
        yield from ctx.read(ctx.address, 256)
        yield from ctx.compute(cycles=100)
        doubled = [value * 2 for value in ctx.arg]
        yield from ctx.send("sw1", 256,
                            active=ActiveHeader(handler_id=2, address=0x0),
                            payload=doubled)
        yield from ctx.deallocate(ctx.address + 512)

    def stage_two(ctx):
        yield from ctx.read(ctx.address, 256)
        yield from ctx.compute(cycles=100)
        total = sum(ctx.arg)
        yield from ctx.send("sink", 16, payload=total)
        yield from ctx.deallocate(ctx.address + 512)

    sw0.register_handler(1, stage_one)
    sw1.register_handler(2, stage_two)

    def producer(env):
        yield from host.transmit(Message(
            "host", "sw0", size_bytes=256,
            active=ActiveHeader(handler_id=1, address=0x0),
            payload=list(range(10))))

    def consumer(env):
        return (yield sink.recv_queue.get())

    env.process(producer(env))
    done = env.process(consumer(env))
    message = env.run(until=done)
    assert message.payload == sum(2 * v for v in range(10))
    env.run()
    assert sw0.buffers.in_use == 0
    assert sw1.buffers.in_use == 0


def test_active_and_forwarded_traffic_coexist():
    """Handler work on sw0 does not reorder or corrupt pass-through
    traffic host -> sink crossing the same switch."""
    env = Environment()
    sw0, sw1, host, sink = build_two_switch_fabric(env)

    def churner(ctx):
        yield from ctx.compute(cycles=50_000)
        yield from ctx.deallocate(ctx.address + 512)

    sw0.register_handler(1, churner)
    received = []

    def producer(env):
        for i in range(10):
            yield from host.transmit(Message(
                "host", "sw0", size_bytes=64,
                active=ActiveHeader(handler_id=1, address=(i % 16) * 512)))
            yield from host.transmit(Message("host", "sink", 128,
                                             payload=i))

    def consumer(env):
        for _ in range(10):
            message = yield sink.recv_queue.get()
            received.append(message.payload)

    env.process(producer(env))
    done = env.process(consumer(env))
    env.run(until=done)
    assert received == list(range(10))


def test_mixed_block_and_packet_traffic_one_system():
    """The block-level I/O pipeline and packet-level active messages
    share one System without interfering."""
    from repro.cluster import ClusterConfig, ReadStream, System

    system = System(ClusterConfig(active=True, num_hosts=2))
    env = system.env
    host0, host1 = system.hosts
    pings = []

    def block_consumer(env):
        stream = ReadStream(system, host0, total_bytes=256 * 1024,
                            request_bytes=64 * 1024, depth=2,
                            to_switch=True, request_cost="active")
        for _ in range(4):
            arrival = yield from stream.next_block()
            yield from system.process_on_switch(
                cycles=1000, stall_ps=0, arrival_end_ps=arrival.end_ps)
            yield from stream.done_with(arrival)

    def pinger(env):
        for i in range(5):
            yield from host1.hca.send(host0.name, 64, payload=i)
            yield env.timeout(us(100))

    def pong(env):
        for _ in range(5):
            message = yield from host0.hca.poll_receive()
            pings.append(message.payload)

    block_proc = env.process(block_consumer(env))
    env.process(pinger(env))
    pong_proc = env.process(pong(env))
    env.run(until=env.all_of([block_proc, pong_proc]))
    assert pings == list(range(5))
    assert system.storage.disks.bytes_read == 256 * 1024
