"""Fabric fail-stop: kill/revive, detection, partition checks, repair."""

import pytest

from repro.apps.reduction import REDUCTION_HCA, _make_vectors, _oracle
from repro.cluster.fabric import (FabricPartitioned, TopologySpec,
                                  build_fabric)
from repro.cluster.placement import (H_COMBINE, CollectiveTimeout,
                                     plan_placement, repair_plan,
                                     run_placed_reduction)
from repro.faults import (FailStopEvent, FailStopFaults, FaultInjector,
                          FaultPlan, HandlerFaults)
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.sim.units import us


def _fat_tree(num_hosts=64, injector=None):
    env = Environment()
    fabric = build_fabric(env, TopologySpec(kind="fat_tree",
                                            num_hosts=num_hosts),
                          hca_config=REDUCTION_HCA, injector=injector)
    return env, fabric


def _failstop_injector(*events, seed=0, timeout_ps=us(200)):
    plan = FaultPlan(failstop=FailStopFaults(
        events=tuple(events), collective_timeout_ps=timeout_ps))
    return FaultInjector(plan, seed=seed)


# ----------------------------------------------------------------------
# Management plane: fail / revive / detect
# ----------------------------------------------------------------------
def test_fail_switch_kills_every_touching_wire():
    env, fabric = _fat_tree()
    assert fabric.fail_switch("spine0")
    node = {n.name: n for n in fabric.switches}["spine0"]
    assert node.is_down and node.failed_at == env.now
    touching = [link for name, link in fabric.links.items()
                if "spine0" in name.split("->")]
    assert touching and all(link.is_down for link in touching)
    assert fabric.ft.switch_kills == 1
    # Other wires untouched.
    assert any(not link.is_down for link in fabric.links.values())


def test_fail_unknown_target_is_ignored():
    _, fabric = _fat_tree()
    assert not fabric.fail_switch("spine99")
    assert not fabric.fail_link("ghost", "spine0")
    assert fabric.ft.switch_kills == fabric.ft.link_kills == 0


def test_immediate_detection_fails_over_the_sender_port():
    env, fabric = _fat_tree()
    leaf = fabric.levels[0][0]
    assert leaf.switch.routing.ports_for("spine0")
    before = tuple(leaf.switch.routing.ports_for("spine0"))
    fabric.fail_switch("spine0", detect=True)
    # Every leaf marked its uplink port down; ECMP lost one member.
    assert leaf.switch.routing.down_ports
    assert not leaf.switch.routing.ports_for("spine0")
    assert leaf.switch.stats.ports_failed == 1
    assert fabric.failovers == len(fabric.levels[0])
    assert fabric.ft.detections == len(fabric.levels[0])
    assert len(before) == 1


def test_detected_down_reports_earliest_declaration():
    env, fabric = _fat_tree()
    fabric.fail_switch("spine1", detect=True)
    detected = fabric.detected_down()
    assert detected == {"spine1": env.now}
    # Ground truth recorded on the node too.
    node = {n.name: n for n in fabric.switches}["spine1"]
    assert node.detected_down_at == env.now


def test_revive_switch_restores_wires_and_routing():
    env, fabric = _fat_tree()
    leaf = fabric.levels[0][0]
    fabric.fail_switch("spine0", detect=True)
    assert not leaf.switch.routing.ports_for("spine0")
    assert fabric.revive_switch("spine0")
    assert leaf.switch.routing.down_ports == ()
    assert leaf.switch.routing.ports_for("spine0")
    node = {n.name: n for n in fabric.switches}["spine0"]
    assert not node.is_down and node.detected_down_at is None
    assert all(not link.is_down for link in fabric.links.values())
    assert fabric.ft.revivals == 1


def test_ecmp_host_routes_survive_one_spine_down():
    """Host-to-host flows re-hash onto surviving spines: every remote
    pair still has a live path after a single spine death."""
    _, fabric = _fat_tree()
    fabric.fail_switch("spine0", detect=True)
    for leaf in fabric.levels[0]:
        for host in fabric.hosts:
            if host in leaf.hosts:
                continue
            assert leaf.switch.routing.ports_for(host.name), \
                f"{leaf.name} lost every route to {host.name}"


# ----------------------------------------------------------------------
# Partition detection
# ----------------------------------------------------------------------
def test_single_spine_down_is_not_a_partition():
    _, fabric = _fat_tree()
    fabric.fail_switch("spine0", detect=True)
    fabric.check_partition()          # no raise
    fabric.validate()                 # failover-aware validation passes


def test_all_spines_down_is_a_partition():
    _, fabric = _fat_tree()
    spines = [node.name for node in fabric.levels[-1]]
    for name in spines:
        fabric.fail_switch(name, detect=True)
    with pytest.raises(FabricPartitioned):
        fabric.check_partition()
    with pytest.raises(FabricPartitioned):
        fabric.validate()


def test_path_raises_fabric_partitioned_when_unroutable():
    _, fabric = _fat_tree()
    for node in fabric.levels[-1]:
        fabric.fail_switch(node.name, detect=True)
    src = fabric.hosts[0].name
    dst = fabric.hosts[-1].name
    with pytest.raises(FabricPartitioned, match="no surviving route"):
        fabric.path(src, dst)


def test_path_reroutes_around_a_dead_spine():
    _, fabric = _fat_tree(num_hosts=64)
    src, dst = fabric.hosts[0].name, fabric.hosts[-1].name
    baseline = fabric.path(src, dst)
    spine = baseline[1]               # the ECMP choice for this flow
    fabric.fail_switch(spine, detect=True)
    rerouted = fabric.path(src, dst)
    assert rerouted[1] != spine
    assert rerouted[0] == baseline[0] and rerouted[-1] == baseline[-1]


# ----------------------------------------------------------------------
# Placement repair
# ----------------------------------------------------------------------
def test_repair_plan_reroots_onto_surviving_spine():
    _, fabric = _fat_tree()
    plan = plan_placement(fabric, "per_level")
    root = fabric.aggregation_root.name
    fabric.fail_switch(root, detect=True)
    repaired = repair_plan(fabric, plan, fabric.detected_down())
    placed = {p.switch for p in repaired.placements.values()}
    assert root not in placed
    assert any(node.name in placed for node in fabric.levels[-1]
               if node.name != root)


def test_repair_plan_without_placed_casualty_returns_plan_unchanged():
    _, fabric = _fat_tree()
    plan = plan_placement(fabric, "per_level")
    # A spine outside the placement died: timeout was congestion-like,
    # retry as-is.
    others = [n.name for n in fabric.levels[-1]
              if n.name != fabric.aggregation_root.name]
    fabric.fail_switch(others[0], detect=True)
    dead = {others[0]}
    assert repair_plan(fabric, plan, dead) is plan


def test_repair_plan_dead_leaf_is_unrecoverable():
    _, fabric = _fat_tree()
    plan = plan_placement(fabric, "per_level")
    leaf = fabric.levels[0][0].name
    with pytest.raises(FabricPartitioned, match="entry switch"):
        repair_plan(fabric, plan, {leaf})


def test_repair_plan_no_surviving_root_is_unrecoverable():
    _, fabric = _fat_tree()
    plan = plan_placement(fabric, "per_level")
    for node in fabric.levels[-1]:
        fabric.fail_switch(node.name, detect=True)
    with pytest.raises(FabricPartitioned):
        repair_plan(fabric, plan, fabric.detected_down())


# ----------------------------------------------------------------------
# End to end: scripted kills through the armed driver
# ----------------------------------------------------------------------
def test_spine_kill_mid_collective_repairs_and_stays_exact():
    injector = _failstop_injector(
        FailStopEvent(kind="switch_down", target="spine0", at_ps=us(12)))
    env, fabric = _fat_tree(injector=injector)
    vectors = _make_vectors(len(fabric.hosts))
    plan = plan_placement(fabric, "per_level")
    done = run_placed_reduction(fabric, plan, vectors)
    assert done["result"] == _oracle(vectors)
    assert done["attempts"] == 2
    assert done["repairs"] == 1
    assert fabric.ft.switch_kills == 1
    assert fabric.ft.detections > 0
    assert fabric.ft.detection_latency_ps_max <= us(10)  # heartbeat bound
    assert injector.snapshot()["injected_failstop_switch_down"] == 1.0


def test_late_kill_is_absorbed_without_retry():
    injector = _failstop_injector(
        FailStopEvent(kind="switch_down", target="spine0", at_ps=us(30)))
    env, fabric = _fat_tree(injector=injector)
    vectors = _make_vectors(len(fabric.hosts))
    plan = plan_placement(fabric, "per_level")
    done = run_placed_reduction(fabric, plan, vectors)
    assert done["result"] == _oracle(vectors)
    assert done["attempts"] == 1
    assert done["repairs"] == 0


def test_revived_switch_serves_a_second_collective():
    injector = _failstop_injector(
        FailStopEvent(kind="switch_down", target="spine0", at_ps=us(12),
                      revive_at_ps=us(300)))
    env, fabric = _fat_tree(injector=injector)
    vectors = _make_vectors(len(fabric.hosts))
    plan = plan_placement(fabric, "per_level")
    done = run_placed_reduction(fabric, plan, vectors)
    assert done["result"] == _oracle(vectors)
    assert done["repairs"] == 1
    # Let the reviver fire, then the fabric must be whole again.
    env.run(until=env.timeout(us(400) - env.now))
    assert fabric.ft.revivals == 1
    fabric.check_partition()
    fabric.validate()


def test_all_spines_dead_surfaces_partition_not_hang():
    events = [FailStopEvent(kind="switch_down", target=f"spine{i}",
                            at_ps=us(5)) for i in range(4)]
    injector = _failstop_injector(*events)
    env, fabric = _fat_tree(injector=injector)
    assert len(fabric.levels[-1]) == 4
    vectors = _make_vectors(len(fabric.hosts))
    plan = plan_placement(fabric, "per_level")
    with pytest.raises((FabricPartitioned, CollectiveTimeout)):
        run_placed_reduction(fabric, plan, vectors)


def test_crashed_combine_handler_retries_the_epoch_not_deadlocks():
    """A contained combine-handler crash loses one contribution; the
    collective deadline (armed by handler faults alone) re-runs the
    epoch to the oracle result instead of draining into a deadlock."""
    plan = FaultPlan(handler=HandlerFaults(
        crash_invocations=((H_COMBINE, 0),)))
    env, fabric = _fat_tree(injector=FaultInjector(plan, seed=0))
    vectors = _make_vectors(len(fabric.hosts))
    done = run_placed_reduction(fabric, plan_placement(fabric, "per_level"),
                                vectors)
    assert done["result"] == _oracle(vectors)
    assert done["attempts"] > 1
    assert done["latency_ps"] > FailStopFaults().collective_timeout_ps


def test_retry_epoch_lifts_a_quarantined_combine_handler():
    """Two scripted crashes quarantine each placed switch's combine
    handler and lose their contributions.  The deadline's retry epoch
    installs fresh handlers, which lifts the quarantine, so the re-sent
    contributions are combined and the collective completes with the
    oracle vector."""
    plan = FaultPlan(handler=HandlerFaults(
        crash_invocations=((H_COMBINE, 0), (H_COMBINE, 1))))
    env, fabric = _fat_tree(injector=FaultInjector(plan, seed=0))
    vectors = _make_vectors(len(fabric.hosts))
    done = run_placed_reduction(fabric, plan_placement(fabric, "per_level"),
                                vectors)
    assert done["result"] == _oracle(vectors)
    assert done["attempts"] == 3  # the spine's crashes land in attempt 2
    switches = [node.switch for node in fabric.switches]
    assert sum(s.degradation.quarantined_handlers for s in switches) == 9
    assert not any(s.quarantined(H_COMBINE) for s in switches)


def test_chaos_reduce_through_the_front_door_completes():
    import repro
    result = repro.run("reduce", topology="tree", hosts=64,
                       preset="chaos_2003", cases=("active",))
    assert result.cases["active"].extra["collective_attempts"] == 2.0


# ----------------------------------------------------------------------
# Metrics surface
# ----------------------------------------------------------------------
def test_register_metrics_exposes_failover_counters():
    _, fabric = _fat_tree()
    metrics = MetricsRegistry()
    fabric.register_metrics(metrics)
    fabric.fail_switch("spine0", detect=True)
    snapshot = metrics.snapshot("fabric")
    assert snapshot["fabric.failovers"] == float(len(fabric.levels[0]))
    assert snapshot["fabric.detections"] == float(len(fabric.levels[0]))
    assert snapshot["fabric.repairs"] == 0.0
    assert "fabric.detection_latency_ps.max" in snapshot
    assert "fabric.detection_latency_ps.mean" in snapshot
