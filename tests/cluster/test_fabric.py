"""Unit tests for the declarative fabric layer."""

import pytest

from repro.cluster.fabric import (FatTreeFabric, TopologyError, TopologySpec,
                                  build_fabric, ecmp_spread)
from repro.net import Message
from repro.sim import Environment


def test_tree_fabric_shape_and_validation():
    fabric = build_fabric(Environment(),
                          TopologySpec(kind="tree", num_hosts=128))
    fabric.validate()
    assert fabric.describe() == {"kind": "tree", "hosts": 128,
                                 "levels": [16, 2, 1], "switches": 19,
                                 "depth": 3}
    assert fabric.aggregation_root.name == fabric.levels[-1][0].name


def test_single_fabric_is_one_switch():
    fabric = build_fabric(Environment(),
                          TopologySpec(kind="single", num_hosts=24))
    fabric.validate()
    assert fabric.depth == 1
    assert len(fabric.switches) == 1
    assert len(fabric.hosts) == 24
    # The original spec is preserved for reporting.
    assert fabric.spec.kind == "single"


def test_fat_tree_shape():
    spec = TopologySpec(kind="fat_tree", num_hosts=64, hosts_per_leaf=8,
                        oversubscription=2.0)
    assert spec.num_leaves == 8
    assert spec.num_spines == 4
    fabric = build_fabric(Environment(), spec)
    fabric.validate()
    assert fabric.describe()["levels"] == [8, 4]


def test_fat_tree_explicit_spines_win():
    spec = TopologySpec(kind="fat_tree", num_hosts=32, hosts_per_leaf=8,
                        spines=7, oversubscription=2.0)
    assert spec.num_spines == 7
    fabric = build_fabric(Environment(), spec)
    fabric.validate()


def test_fat_tree_packing_errors():
    with pytest.raises(TopologyError, match="uplinks"):
        # 14 host ports + 8 spines > 16 ports.
        build_fabric(Environment(), TopologySpec(
            kind="fat_tree", num_hosts=64, hosts_per_leaf=14, spines=8))
    with pytest.raises(TopologyError, match="leaves exceed"):
        # 32 leaves > 16 spine ports.
        build_fabric(Environment(), TopologySpec(
            kind="fat_tree", num_hosts=256, hosts_per_leaf=8))


def test_unknown_kind_rejected():
    with pytest.raises(TopologyError, match="unknown topology kind"):
        TopologySpec(kind="torus", num_hosts=8)


def test_path_tracing_tree():
    fabric = build_fabric(Environment(),
                          TopologySpec(kind="tree", num_hosts=64))
    # Cross-leaf: up to the root and back down.
    hops = fabric.path("host0", "host63")
    assert len(hops) == 3
    assert hops[0] == fabric.leaf_of(fabric.hosts[0]).name
    assert hops[1] == fabric.aggregation_root.name
    # Same-leaf: one hop.
    assert len(fabric.path("host0", "host1")) == 1


def test_path_tracing_fat_tree_uses_one_spine_per_flow():
    fabric = build_fabric(Environment(), TopologySpec(
        kind="fat_tree", num_hosts=64, hosts_per_leaf=8))
    hops = fabric.path("host0", "host63")
    assert len(hops) == 3
    assert hops[1].startswith("spine")
    # Deterministic: the same flow always takes the same path.
    assert fabric.path("host0", "host63") == hops


def test_ecmp_spreads_flows_across_spines():
    fabric = build_fabric(Environment(), TopologySpec(
        kind="fat_tree", num_hosts=64, hosts_per_leaf=8))
    spread = ecmp_spread(fabric, "host63")
    assert len(spread) == 4  # 56 remote flows cover all 4 spines
    assert all(name.startswith("spine") for name in spread)


def test_fat_tree_delivers_cross_leaf_messages():
    env = Environment()
    fabric = build_fabric(env, TopologySpec(
        kind="fat_tree", num_hosts=32, hosts_per_leaf=8))
    src, dst = fabric.hosts[0], fabric.hosts[31]

    def sender(env):
        yield from src.hca.transmit(Message(src.name, dst.name, 256))

    def receiver(env):
        return (yield dst.hca.recv_queue.get())

    env.process(sender(env))
    proc = env.process(receiver(env))
    message = env.run(until=proc)
    assert message.size_bytes == 256
    spines = fabric.levels[1]
    assert sum(s.switch.stats.forwarded for s in spines) >= 1


def test_fat_tree_validate_catches_sabotage():
    fabric = build_fabric(Environment(), TopologySpec(
        kind="fat_tree", num_hosts=32, hosts_per_leaf=8))
    assert isinstance(fabric, FatTreeFabric)
    fabric.validate()
    # Point a spine's route for host0 at an unconnected port.
    spine = fabric.levels[1][0]
    spine.switch.routing.add("host0", spine.switch.config.num_ports - 1)
    with pytest.raises(TopologyError, match="unconnected-port"):
        fabric.validate()


def test_non_packing_host_count_fills_last_leaf_partially():
    fabric = build_fabric(Environment(), TopologySpec(
        kind="fat_tree", num_hosts=20, hosts_per_leaf=8))
    fabric.validate()
    leaf_sizes = [len(leaf.hosts) for leaf in fabric.levels[0]]
    assert leaf_sizes == [8, 8, 4]
