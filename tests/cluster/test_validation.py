"""Tests for the fabric validator."""

import pytest

from repro.cluster import ClusterConfig, System, TopologySpec, build_fabric
from repro.cluster.validation import (
    FabricIssue,
    assert_fabric_sound,
    validate_fabric,
)
from repro.net import ChannelAdapter, Link
from repro.sim import Environment
from repro.switch import BaseSwitch


def test_system_fabric_is_sound():
    system = System(ClusterConfig(num_hosts=3, num_storage=2))
    adapters = ([h.hca for h in system.hosts]
                + [s.tca for s in system.storage_nodes])
    assert validate_fabric([system.switch], adapters) == []


def test_reduction_tree_is_sound():
    tree = build_fabric(Environment(), TopologySpec("tree", 64))
    switches = [node.switch for node in tree.switches]
    adapters = [host.hca for host in tree.hosts]
    assert validate_fabric(switches, adapters) == []
    assert_fabric_sound(switches, adapters)


def test_missing_route_detected():
    env = Environment()
    switch = BaseSwitch(env, "sw0")
    adapter = ChannelAdapter(env, "ep0")
    to_switch = Link(env, "ep0->sw0")
    from_switch = Link(env, "sw0->ep0")
    adapter.attach(tx_link=to_switch, rx_link=from_switch)
    switch.connect(0, tx_link=from_switch, rx_link=to_switch)
    # No routing entry added.
    issues = validate_fabric([switch], [adapter])
    assert any(issue.kind == "unreachable" for issue in issues)


def test_route_to_unconnected_port_detected():
    env = Environment()
    switch = BaseSwitch(env, "sw0")
    adapter = ChannelAdapter(env, "ep0")
    to_switch = Link(env, "ep0->sw0")
    from_switch = Link(env, "sw0->ep0")
    adapter.attach(tx_link=to_switch, rx_link=from_switch)
    switch.connect(0, tx_link=from_switch, rx_link=to_switch)
    switch.routing.add("ep0", 5)  # wrong, unconnected port
    issues = validate_fabric([switch], [adapter])
    assert any(issue.kind == "unconnected-port" for issue in issues)


def test_routing_loop_detected():
    env = Environment()
    sw0 = BaseSwitch(env, "sw0")
    sw1 = BaseSwitch(env, "sw1")
    a = Link(env, "sw0->sw1")
    b = Link(env, "sw1->sw0")
    sw0.connect(0, tx_link=a, rx_link=b)
    sw1.connect(0, tx_link=b, rx_link=a)
    # Each switch points at the other for 'ghost'.
    sw0.routing.add("ghost", 0)
    sw1.routing.add("ghost", 0)
    ghost = ChannelAdapter(env, "ghost")
    issues = validate_fabric([sw0, sw1], [ghost])
    assert any(issue.kind == "loop" for issue in issues)


def test_assert_raises_with_details():
    env = Environment()
    switch = BaseSwitch(env, "sw0")
    adapter = ChannelAdapter(env, "ep0")
    with pytest.raises(ValueError, match="unreachable"):
        assert_fabric_sound([switch], [adapter])


def test_issue_str_is_readable():
    issue = FabricIssue("loop", "sw0", "hostX", "path exceeds 3 hops")
    text = str(issue)
    assert "loop" in text and "sw0" in text and "hostX" in text
