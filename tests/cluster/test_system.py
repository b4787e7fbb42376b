"""Unit tests for cluster configuration and system assembly."""

import pytest

from repro.cluster import ClusterConfig, System, four_cases
from repro.switch import ActiveSwitch, BaseSwitch


def test_default_config_is_normal_case():
    config = ClusterConfig()
    assert config.case_label == "normal"
    assert not config.active
    assert config.prefetch_depth == 1


def test_case_labels():
    base = ClusterConfig()
    labels = [label for label, _ in four_cases(base)]
    assert labels == ["normal", "normal+pref", "active", "active+pref"]
    for label, config in four_cases(base):
        assert config.case_label == label


def test_with_case_sets_depth():
    config = ClusterConfig().with_case(active=True, prefetch=True)
    assert config.active
    assert config.prefetch_depth == 2


def test_with_case_propagates_cpu_count():
    base = ClusterConfig(num_switch_cpus=4)
    config = base.with_case(active=True, prefetch=False)
    assert config.active_switch.num_cpus == 4


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(num_hosts=0)
    with pytest.raises(ValueError):
        ClusterConfig(prefetch_depth=0)
    with pytest.raises(ValueError):
        ClusterConfig(num_switch_cpus=3)


def test_normal_system_uses_base_switch():
    system = System(ClusterConfig(active=False))
    assert type(system.switch) is BaseSwitch
    with pytest.raises(RuntimeError):
        system.switch_cpu_peek()


def test_active_system_uses_active_switch():
    system = System(ClusterConfig(active=True))
    assert isinstance(system.switch, ActiveSwitch)
    assert system.switch_cpu_peek() is system.switch.cpus[0]


def test_active_system_multiple_cpus():
    system = System(ClusterConfig(num_switch_cpus=4).with_case(True, False))
    assert len(system.switch.cpus) == 4
    assert system.switch_cpu_peek() is system.switch.cpus[0]


def test_system_builds_requested_nodes():
    system = System(ClusterConfig(num_hosts=4, num_storage=2))
    assert [h.name for h in system.hosts] == [
        "host0", "host1", "host2", "host3"]
    assert [s.name for s in system.storage_nodes] == ["storage0", "storage1"]


def test_switch_grows_ports_when_needed():
    system = System(ClusterConfig(num_hosts=8, num_storage=4))
    assert system.switch.config.num_ports >= 12


def test_routing_configured_for_all_nodes():
    system = System(ClusterConfig(num_hosts=2, num_storage=1))
    assert "host0" in system.switch.routing
    assert "host1" in system.switch.routing
    assert "storage0" in system.switch.routing


def test_request_path_latency_reasonable():
    system = System(ClusterConfig())
    # Control message: sub-microsecond (dominated by 100 ns routing
    # latency + HCA packet processing).
    assert 0 < system.request_path_ps() < 1_000_000


def test_database_scaled_caches_flag():
    system = System(ClusterConfig(database_scaled_caches=True))
    assert system.host.hierarchy.l2.config.size_bytes == 64 * 1024


def test_first_tail_larger_for_host_destination():
    system = System(ClusterConfig())
    assert (system.first_data_tail_ps(to_switch=False)
            > system.first_data_tail_ps(to_switch=True))


def test_process_on_switch_requires_active():
    system = System(ClusterConfig(active=False))
    with pytest.raises(RuntimeError):
        list(system.process_on_switch(100, 0))


def test_switch_to_host_bulk_accounts_traffic():
    system = System(ClusterConfig(active=True))

    def mover(env):
        yield from system.switch_to_host_bulk(system.host, 10_000)

    system.env.process(mover(system.env))
    system.env.run()
    assert system.host.hca.traffic.bytes_in == 10_000


def test_host_to_host_bulk_moves_and_accounts():
    system = System(ClusterConfig(num_hosts=2))
    a, b = system.hosts

    def mover(env):
        yield from system.host_to_host_bulk(a, b, 1024)
        return env.now

    proc = system.env.process(mover(system.env))
    elapsed = system.env.run(until=proc)
    assert elapsed > 0
    assert a.hca.traffic.bytes_out == 1024
    assert b.hca.traffic.bytes_in == 1024


def test_process_on_switch_charges_busy_and_returns_cpu():
    system = System(ClusterConfig(active=True))

    def worker(env):
        yield from system.process_on_switch(cycles=1000, stall_ps=0)

    system.env.process(worker(system.env))
    system.env.run()
    cpu = system.switch.cpus[0]
    assert cpu.accounting.busy_ps == 1000 * 2000  # 1000 cycles at 2 ns
    assert system.switch_cpu_peek() is cpu  # returned to pool, free


def test_process_on_switch_waits_for_arrival_as_stall():
    system = System(ClusterConfig(active=True))
    env = system.env
    arrival_end = env.event()

    def trigger(env):
        yield env.timeout(1_000_000)
        arrival_end.succeed()

    def worker(env):
        yield from system.process_on_switch(
            cycles=100, stall_ps=0, arrival_end_event=arrival_end)
        return env.now

    env.process(trigger(env))
    proc = env.process(worker(env))
    finished = env.run(until=proc)
    assert finished >= 1_000_000
    assert system.switch.cpus[0].accounting.stall_ps > 0
