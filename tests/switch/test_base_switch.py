"""Unit tests for the conventional switch."""

import pytest

from repro.net import ChannelAdapter, Link, Message, Packet
from repro.sim import Environment
from repro.sim.units import ns
from repro.switch import BaseSwitch, RoutingToSwitchError, SwitchConfig
from repro.switch.base import PortNotConnected
from repro.net.packet import ActiveHeader


def build_fabric(env, switch_cls=BaseSwitch, num_endpoints=2, **kwargs):
    """A switch with ``num_endpoints`` adapters attached to ports 0..n."""
    switch = switch_cls(env, "sw0", **kwargs)
    adapters = []
    for i in range(num_endpoints):
        name = f"ep{i}"
        to_switch = Link(env, f"{name}->sw0")
        from_switch = Link(env, f"sw0->{name}")
        adapter = ChannelAdapter(env, name)
        adapter.attach(tx_link=to_switch, rx_link=from_switch)
        switch.connect(i, tx_link=from_switch, rx_link=to_switch)
        switch.routing.add(name, i)
        adapters.append(adapter)
    return switch, adapters


def test_forwards_between_endpoints():
    env = Environment()
    switch, (a, b) = build_fabric(env)

    from repro.net import Message

    def sender(env):
        yield from a.transmit(Message("ep0", "ep1", 256))

    def receiver(env):
        return (yield b.recv_queue.get())

    env.process(sender(env))
    proc = env.process(receiver(env))
    message = env.run(until=proc)
    assert message.size_bytes == 256
    assert switch.stats.forwarded == 1


def test_routing_latency_applied():
    env = Environment()
    switch, (a, b) = build_fabric(env)
    from repro.net import Message

    def sender(env):
        yield from a.transmit(Message("ep0", "ep1", 0))

    def receiver(env):
        yield b.recv_queue.get()
        return env.now

    env.process(sender(env))
    proc = env.process(receiver(env))
    arrival = env.run(until=proc)
    # Two link hops + the 100 ns routing latency must be present.
    assert arrival >= ns(100)


def test_multi_hop_through_two_switches():
    env = Environment()
    sw0 = BaseSwitch(env, "sw0")
    sw1 = BaseSwitch(env, "sw1")
    a = ChannelAdapter(env, "a")
    b = ChannelAdapter(env, "b")

    a_sw0 = Link(env, "a->sw0")
    sw0_a = Link(env, "sw0->a")
    sw0_sw1 = Link(env, "sw0->sw1")
    sw1_sw0 = Link(env, "sw1->sw0")
    sw1_b = Link(env, "sw1->b")
    b_sw1 = Link(env, "b->sw1")

    a.attach(tx_link=a_sw0, rx_link=sw0_a)
    sw0.connect(0, tx_link=sw0_a, rx_link=a_sw0)
    sw0.connect(1, tx_link=sw0_sw1, rx_link=sw1_sw0)
    sw1.connect(0, tx_link=sw1_sw0, rx_link=sw0_sw1)
    sw1.connect(1, tx_link=sw1_b, rx_link=b_sw1)
    b.attach(tx_link=b_sw1, rx_link=sw1_b)

    sw0.routing.add("b", 1)
    sw1.routing.add("b", 1)

    from repro.net import Message

    def sender(env):
        yield from a.transmit(Message("a", "b", 512))

    def receiver(env):
        return (yield b.recv_queue.get())

    env.process(sender(env))
    proc = env.process(receiver(env))
    message = env.run(until=proc)
    assert message.size_bytes == 512
    assert sw0.stats.forwarded == 1
    assert sw1.stats.forwarded == 1


def test_conventional_switch_rejects_active_packet():
    env = Environment()
    switch, (a, b) = build_fabric(env)

    def sender(env):
        packet = Packet("ep0", "sw0", payload_bytes=64,
                        active=ActiveHeader(handler_id=1, address=0))
        yield from a._tx_link.send(packet)

    env.process(sender(env))
    with pytest.raises(RoutingToSwitchError):
        env.run()


def test_port_bounds_checked():
    env = Environment()
    switch = BaseSwitch(env, "sw0")
    with pytest.raises(ValueError):
        switch.connect(99, Link(env, "x"), Link(env, "y"))


def test_double_connect_rejected():
    env = Environment()
    switch = BaseSwitch(env, "sw0")
    switch.connect(0, Link(env, "a"), Link(env, "b"))
    with pytest.raises(ValueError):
        switch.connect(0, Link(env, "c"), Link(env, "d"))


def test_config_validation():
    with pytest.raises(ValueError):
        SwitchConfig(num_ports=1)
    with pytest.raises(ValueError):
        SwitchConfig(routing_latency_ps=-1)
    with pytest.raises(ValueError):
        SwitchConfig(output_queue_packets=0)


def test_connected_ports_listing():
    env = Environment()
    switch = BaseSwitch(env, "sw0")
    switch.connect(2, Link(env, "a"), Link(env, "b"))
    assert switch.connected_ports() == [2]


def test_only_connected_ports_run_transmitters():
    """A port's transmitter starts when the port is connected."""
    env = Environment()
    switch = BaseSwitch(env, "sw0", SwitchConfig(num_ports=16))
    for port in (1, 7, 12):
        switch.connect(port, Link(env, f"sw0->p{port}"),
                       Link(env, f"p{port}->sw0"))
    env.run(until=0)
    transmitters = sorted(p.name for p in env._alive_processes
                          if p.name.startswith("sw0-tx"))
    assert transmitters == ["sw0-tx1", "sw0-tx12", "sw0-tx7"]


@pytest.mark.parametrize("via", ["route", "inject", "inject_to_port"])
def test_unconnected_port_raises(via):
    """Nothing would drain an unconnected port's queue, so a packet
    routed or injected there raises instead of waiting forever."""
    env = Environment()
    switch, (a, _) = build_fabric(env)
    switch.routing.add("ep5", 5)

    def sender(env):
        if via == "route":
            yield from a.transmit(Message("ep0", "ep5", 64))
        else:
            packet = Packet("sw0", "ep5", payload_bytes=64)
            yield from switch.inject(
                packet, out_port=5 if via == "inject_to_port" else None)

    env.process(sender(env))
    with pytest.raises(PortNotConnected, match="unconnected port 5"):
        env.run()
