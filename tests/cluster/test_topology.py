"""Unit tests for the switch-tree fabric (``TopologySpec("tree")``)."""

import pytest

from repro.cluster import TopologyError, TopologySpec, build_fabric
from repro.cluster.fabric import Fabric, TreeFabric
from repro.net import Message
from repro.sim import Environment


def _tree(num_hosts, env=None, **shape):
    return build_fabric(env or Environment(),
                        TopologySpec("tree", num_hosts, **shape))


def test_single_leaf_for_few_hosts():
    tree = _tree(8)
    assert tree.depth == 1
    assert len(tree.levels[0]) == 1
    assert tree.aggregation_root is tree.levels[0][0]


def test_two_leaves_get_a_root():
    tree = _tree(16)
    assert tree.depth == 2
    assert len(tree.levels[0]) == 2
    assert tree.aggregation_root.fan_in == 2


def test_128_hosts_paper_topology():
    tree = _tree(128)
    assert len(tree.levels[0]) == 16
    assert tree.depth == 3
    assert len(tree.switches) == 16 + 2 + 1
    # One name counter across levels: leaves first, then upward.
    assert [node.name for node in tree.levels[1]] == ["sw-l1-16", "sw-l1-17"]
    assert tree.aggregation_root.name == "sw-l2-18"


def test_every_host_has_a_leaf():
    tree = _tree(20)
    for host in tree.hosts:
        leaf = tree.leaf_of(host)
        assert host in leaf.hosts


def test_leaf_of_unknown_host_raises():
    tree = _tree(8)
    other = _tree(8)
    with pytest.raises(ValueError):
        tree.leaf_of(other.hosts[0])


def test_subtree_host_bookkeeping():
    tree = _tree(64)
    assert sorted(tree.aggregation_root.subtree_hosts) == sorted(
        h.name for h in tree.hosts)


def test_validation():
    with pytest.raises(TopologyError):
        _tree(0)
    with pytest.raises(TopologyError, match="hosts_per_leaf"):
        _tree(8, hosts_per_leaf=16, switch_ports=16)


def test_cross_leaf_message_routes_through_tree():
    """host0 -> host15 crosses two leaves and the root."""
    env = Environment()
    tree = _tree(16, env)
    src, dst = tree.hosts[0], tree.hosts[15]

    def sender(env):
        yield from src.hca.transmit(Message(src.name, dst.name, 256))

    def receiver(env):
        return (yield dst.recv_queue.get()) if False else (
            yield dst.hca.recv_queue.get())

    env.process(sender(env))
    proc = env.process(receiver(env))
    message = env.run(until=proc)
    assert message.size_bytes == 256
    assert tree.aggregation_root.switch.stats.forwarded >= 1


def test_same_leaf_message_stays_local():
    env = Environment()
    tree = _tree(16, env)
    src, dst = tree.hosts[0], tree.hosts[1]  # same leaf

    def sender(env):
        yield from src.hca.transmit(Message(src.name, dst.name, 64))

    def receiver(env):
        return (yield dst.hca.recv_queue.get())

    env.process(sender(env))
    proc = env.process(receiver(env))
    env.run(until=proc)
    assert tree.aggregation_root.switch.stats.forwarded == 0


def test_no_shared_mutable_default_configs():
    """Regression: the tree builder once used module-level dataclass
    instances as default arguments; two fabrics must never share config
    objects implicitly."""
    import dataclasses
    import inspect

    for cls in (Fabric, TreeFabric):
        signature = inspect.signature(cls.__init__)
        assert signature.parameters["cluster_config"].default is None
        assert signature.parameters["hca_config"].default is None
    a, b = _tree(8), _tree(8)
    assert a.cluster_config == b.cluster_config  # same values...
    assert a.cluster_config is not b.cluster_config
    # ...and frozen (immutable) configs all the way down.
    for config in (a.cluster_config, a.cluster_config.link,
                   a.cluster_config.active_switch, a.hca_config):
        assert dataclasses.is_dataclass(config)
        assert config.__dataclass_params__.frozen


@pytest.mark.parametrize("num_hosts", [1, 3, 7, 9, 17, 20, 63, 65, 100, 129])
@pytest.mark.parametrize("hosts_per_leaf", [3, 8])
def test_odd_host_counts_stay_consistent(num_hosts, hosts_per_leaf):
    """Satellite audit: non-power-of-hosts_per_leaf counts must keep
    routing tables, fan_in, and port accounting consistent."""
    tree = _tree(num_hosts, hosts_per_leaf=hosts_per_leaf)
    tree.validate()
    assert sum(leaf.fan_in for leaf in tree.levels[0]) == num_hosts
    for level in tree.levels[1:]:
        for node in level:
            assert node.fan_in == len(node.children)


def test_validate_catches_broken_routing():
    tree = _tree(16)
    tree.validate()  # sound as built
    # Sabotage: point a leaf's route for its own host at the uplink.
    leaf = tree.levels[0][0]
    sabotaged = leaf.hosts[0].name
    leaf.switch.routing.add(sabotaged, leaf.switch.config.num_ports - 1)
    with pytest.raises(TopologyError, match="loop"):
        tree.validate()


def test_radix_parameter_controls_internal_fanout():
    tree = _tree(64, hosts_per_leaf=8, radix=4)
    assert len(tree.levels[0]) == 8
    assert len(tree.levels[1]) == 2   # 8 leaves / radix 4
    assert tree.depth == 3
    tree.validate()


def test_bad_radix_rejected():
    with pytest.raises(TopologyError, match="radix"):
        _tree(32, radix=1)
    with pytest.raises(TopologyError, match="radix"):
        _tree(32, switch_ports=16, radix=16)


def test_switch_names_routed_downward():
    """Internal switches route descendant *switch* names explicitly, so
    placement engines can address partial results to any switch."""
    tree = _tree(128)
    leaf0 = tree.levels[0][0]
    root = tree.aggregation_root
    assert root.switch.routing.has_route(leaf0.name)
    mid = tree.levels[1][0]
    assert root.switch.routing.has_route(mid.name)
    assert mid.switch.routing.has_route(leaf0.name)
