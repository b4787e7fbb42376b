"""Unit tests for the handler placement engine."""

import pytest

from repro.apps.reduction import REDUCTION_HCA, _make_vectors, _oracle
from repro.cluster.fabric import TopologyError, TopologySpec, build_fabric
from repro.cluster.placement import (DISTRIBUTED, PLACEMENT_POLICIES,
                                     REDUCE_TO_ALL, REDUCE_TO_ONE,
                                     plan_placement, run_placed_reduction)
from repro.obs import MetricsRegistry
from repro.sim import Environment


def _fabric(kind, hosts, **kw):
    env = Environment()
    spec = TopologySpec(kind=kind, num_hosts=hosts, **kw)
    return build_fabric(env, spec, hca_config=REDUCTION_HCA)


def test_root_only_plan_shape():
    fabric = _fabric("tree", 64)
    plan = plan_placement(fabric, "root_only")
    assert plan.instances == 1
    only = plan.placements[plan.root]
    assert only.role == "finalize"
    assert only.expected == 64
    assert all(switch == plan.root for switch, _ in plan.entry.values())


def test_leaf_combine_plan_shape():
    fabric = _fabric("tree", 64)
    plan = plan_placement(fabric, "leaf_combine")
    assert plan.describe()["per_level"] == {0: 8, 1: 1}
    root = plan.placements[plan.root]
    assert root.expected == 8  # one partial per leaf
    for host in fabric.hosts:
        switch, _ = plan.entry[host.name]
        assert switch == fabric.leaf_of(host).name


def test_per_level_plan_covers_every_level():
    fabric = _fabric("tree", 128)  # depth 3: 16 leaves, 2 mids, root
    plan = plan_placement(fabric, "per_level")
    assert plan.describe()["per_level"] == {0: 16, 1: 2, 2: 1}
    mid = fabric.levels[1][0]
    placement = plan.placements[mid.name]
    assert placement.role == "combine"
    assert placement.expected == mid.fan_in
    assert placement.parent == fabric.aggregation_root.name


def test_single_switch_degenerates_to_root_only():
    fabric = _fabric("single", 16)
    for policy in PLACEMENT_POLICIES:
        plan = plan_placement(fabric, policy)
        assert plan.instances == 1
        assert plan.placements[plan.root].expected == 16


def test_unknown_policy_rejected():
    fabric = _fabric("tree", 16)
    with pytest.raises(TopologyError, match="placement policy"):
        plan_placement(fabric, "everywhere")


@pytest.mark.parametrize("kind,hosts", [
    ("tree", 64), ("tree", 20), ("fat_tree", 64), ("fat_tree", 20),
    ("single", 16),
])
@pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
def test_placed_reduction_matches_oracle(kind, hosts, policy):
    """Every (topology, policy) combination computes the exact sum."""
    fabric = _fabric(kind, hosts)
    vectors = _make_vectors(hosts)
    done = run_placed_reduction(fabric, plan_placement(fabric, policy),
                                vectors)
    assert done["result"] == _oracle(vectors)


def test_hierarchical_beats_root_only_at_scale():
    vectors = _make_vectors(128)
    latencies = {}
    for policy in ("root_only", "per_level"):
        fabric = _fabric("tree", 128)
        done = run_placed_reduction(
            fabric, plan_placement(fabric, policy), vectors)
        latencies[policy] = done["latency_ps"]
    assert latencies["per_level"] < latencies["root_only"]


def test_per_level_metrics_counters():
    fabric = _fabric("tree", 64)
    metrics = MetricsRegistry()
    run_placed_reduction(fabric, plan_placement(fabric, "per_level"),
                         _make_vectors(64), metrics=metrics)
    snap = metrics.snapshot("fabric")
    assert snap["fabric.level0.combines"] == 64
    assert snap["fabric.level0.partials_sent"] == 8
    assert snap["fabric.level1.combines"] == 8
    assert snap["fabric.level1.partials_sent"] == 0  # root finalizes


def test_trace_instants_emitted():
    from repro.obs import TraceCollector

    fabric = _fabric("tree", 16)
    fabric.env.trace = TraceCollector()
    run_placed_reduction(fabric, plan_placement(fabric, "per_level"),
                         _make_vectors(16))
    names = [event.name for event in fabric.env.trace.events
             if event.component == "fabric"]
    assert names.count("combine") == 16 + 2  # 16 host inputs + 2 partials
    assert names.count("finalize") == 1


def test_deterministic_across_runs():
    def once():
        fabric = _fabric("fat_tree", 64)
        return run_placed_reduction(
            fabric, plan_placement(fabric, "per_level"), _make_vectors(64))

    a, b = once(), once()
    assert a["latency_ps"] == b["latency_ps"]
    assert a["result"] == b["result"]


# ----------------------------------------------------------------------
# Delivery modes (the paper's Table 2)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["tree", "fat_tree"])
@pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
@pytest.mark.parametrize("mode", [REDUCE_TO_ONE, DISTRIBUTED, REDUCE_TO_ALL])
def test_every_mode_delivers_the_oracle(kind, policy, mode):
    """Each receiving host gets its part of the exact sum: host 0 the
    vector (reduce-to-one), host j slice j (distributed), every host
    the vector (reduce-to-all)."""
    fabric = _fabric(kind, 20)
    vectors = _make_vectors(20)
    oracle = _oracle(vectors)
    done = run_placed_reduction(fabric, plan_placement(fabric, policy),
                                vectors, mode=mode)
    assert done["result"] == oracle
    if mode == REDUCE_TO_ONE:
        assert "per_host" not in done
    elif mode == DISTRIBUTED:
        assert [word for part in done["per_host"] for word in part] == oracle
    else:
        assert done["per_host"] == [oracle] * 20


@pytest.mark.parametrize("kind,hosts", [
    ("tree", 3), ("tree", 5), ("tree", 12), ("tree", 20), ("tree", 100),
    ("fat_tree", 12),
])
def test_distributed_delivers_every_word_once(kind, hosts):
    """Regression: slices of ``words // p`` words dropped every word
    past ``p * (words // p)`` (p=3 delivered 126 of 128), and message
    sizes disagreed with their payloads.  Slices now cover the vector
    exactly and differ by at most one word."""
    fabric = _fabric(kind, hosts)
    vectors = _make_vectors(hosts)
    done = run_placed_reduction(fabric, plan_placement(fabric, "per_level"),
                                vectors, mode=DISTRIBUTED)
    parts = done["per_host"]
    assert [word for part in parts for word in part] == _oracle(vectors)
    assert max(map(len, parts)) - min(map(len, parts)) <= 1
    for host, part in zip(fabric.hosts, parts):
        assert host.hca.traffic.bytes_in == max(4, 4 * len(part))


def test_unknown_mode_rejected():
    fabric = _fabric("tree", 8)
    with pytest.raises(ValueError, match="reduction mode"):
        run_placed_reduction(fabric, plan_placement(fabric, "per_level"),
                             _make_vectors(8), mode="reduce-to-some")
