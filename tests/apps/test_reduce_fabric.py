"""End-to-end tests for ``repro.run("reduce", ...)``.

The acceptance bar for the scale-out layer: a 64-host two-level
fat-tree run with per-level aggregation completes through the unified
front door and the in-network result is bit-identical to the host-only
computation (checked against the oracle inside ``run_case``; the cases
also agree on the derived sums below).
"""

import pytest

import repro
from repro.apps.reduction import FabricReduceApp


def test_repro_run_64_host_fat_tree_per_level():
    result = repro.run("reduce", topology="fat_tree", hosts=64,
                       placement="per_level", cases=("normal", "active"))
    normal, active = result.cases["normal"], result.cases["active"]
    # In-network aggregation wins and moves fewer bytes through host 0.
    assert active.exec_ps < normal.exec_ps
    assert active.host_traffic_bytes < normal.host_traffic_bytes
    # Per-level counters surfaced in the result.
    assert active.extra["fabric.level0.combines"] == 64.0
    assert active.extra["fabric.level1.combines"] == 8.0
    assert active.extra["placement_instances"] == 9.0
    assert active.switch_cpus  # placed switches' breakdowns present


def test_run_is_deterministic():
    kwargs = dict(topology="tree", hosts=64, placement="leaf_combine",
                  cases=("active",))
    a = repro.run("reduce", **kwargs).cases["active"]
    b = repro.run("reduce", **kwargs).cases["active"]
    assert a.exec_ps == b.exec_ps
    assert a.extra == b.extra


def test_all_four_case_labels_complete():
    result = repro.run("reduce", topology="tree", hosts=16)
    assert set(result.cases) == {"normal", "normal+pref",
                                 "active", "active+pref"}
    # Prefetch has no meaning for a collective: labels pair up exactly.
    assert result.cases["normal"].exec_ps == \
        result.cases["normal+pref"].exec_ps
    assert result.cases["active"].exec_ps == \
        result.cases["active+pref"].exec_ps


def test_placement_policies_change_latency_not_result():
    times = {}
    for policy in ("root_only", "per_level"):
        case = repro.run("reduce", topology="tree", hosts=128,
                         placement=policy, cases=("active",)).cases["active"]
        times[policy] = case.exec_ps
    assert times["per_level"] < times["root_only"]


def test_bad_parameters_fail_at_spec_time():
    with pytest.raises(ValueError, match="placement"):
        FabricReduceApp(placement="nowhere")
    with pytest.raises(ValueError):
        FabricReduceApp(topology="hypercube")
    with pytest.raises(ValueError, match="vector_bytes"):
        FabricReduceApp(vector_bytes=6)


def test_metrics_sink_and_trace():
    from repro.obs import TraceCollector

    app = FabricReduceApp(topology="tree", hosts=16)
    config = app.cluster_config().with_case(active=True, prefetch=False)
    sink = {}
    collector = TraceCollector()
    case = app.run_case(config, trace=collector, metrics_sink=sink)
    assert case.label == "active"
    assert sink["fabric.level0.combines"] == 16.0
    assert any(event.component == "fabric" for event in collector.events)


def test_handler_crashes_report_switch_degradation():
    """A reduce under handler crashes reports how the fabric's switches
    contained them, summed over every switch, like a System does."""
    from repro.faults import FaultPlan, HandlerFaults

    plan = FaultPlan(handler=HandlerFaults(crash_rate=0.05))
    extra = repro.run("reduce", topology="tree", hosts=16, cases=("active",),
                      overrides={"seed": 0, "faults": plan}
                      ).cases["active"].extra
    assert extra["handler_contained_crashes"] \
        == extra["injected_handler_crashes"] == 3.0
    assert extra["handler_quarantined"] == 2.0


def test_fault_free_results_carry_no_fault_keys():
    extra = repro.run("reduce", topology="tree", hosts=16,
                      cases=("active",)).cases["active"].extra
    assert not {key for key in extra
                if key.startswith(("link_", "handler_", "injected_"))}


def test_fabric_is_audited_on_the_first_run_only(monkeypatch):
    """The audit reads only the spec, so one app audits once however
    many cases it runs, and a failed audit still fails the first run."""
    from repro.cluster.fabric import TopologyError, TreeFabric

    audits = []
    monkeypatch.setattr(TreeFabric, "validate",
                        lambda fabric: audits.append(fabric))
    app = FabricReduceApp(topology="tree", hosts=16)
    for active in (False, True):
        app.run_case(app.cluster_config().with_case(active=active,
                                                    prefetch=False))
    assert len(audits) == 1

    def reject(fabric):
        raise TopologyError("miswired")

    monkeypatch.setattr(TreeFabric, "validate", reject)
    fresh = FabricReduceApp(topology="tree", hosts=16)
    with pytest.raises(TopologyError, match="miswired"):
        fresh.run_case(fresh.cluster_config().with_case(active=True,
                                                        prefetch=False))


@pytest.mark.parametrize("active", [False, True])
def test_only_caches_a_reduce_touches_hold_storage(monkeypatch, active):
    """Cache storage is allocated on first use.  The in-network reduce
    touches no CPU's memory; the binomial (MST) reduce loads into the
    data caches of its 32 receiving hosts, the even ones, and fetches
    no instruction."""
    from repro.apps import reduction

    fabrics = []
    build = reduction.build_fabric

    def recording_build(*args, **kwargs):
        fabrics.append(build(*args, **kwargs))
        return fabrics[-1]

    monkeypatch.setattr(reduction, "build_fabric", recording_build)
    app = FabricReduceApp(topology="tree", hosts=64)
    app.run_case(app.cluster_config().with_case(active=active,
                                                prefetch=False))
    (fabric,) = fabrics

    def allocated(hierarchy):
        return {level for level in ("l1d", "l1i", "l2")
                if getattr(getattr(hierarchy, level), "_ways", None)
                is not None}

    assert not any(allocated(cpu.hierarchy) for node in fabric.switches
                   for cpu in node.switch.cpus)
    hosts = [allocated(host.hierarchy) for host in fabric.hosts]
    if active:
        assert hosts == [set()] * 64
    else:
        assert hosts == [{"l1d", "l2"}, set()] * 32
