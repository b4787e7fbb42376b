"""Unit tests for ComputeNode and StorageNode assemblies."""

import pytest

from repro.cluster import ClusterConfig, System
from repro.cluster.node import ComputeNode, StorageNode
from repro.sim import Environment
from repro.sim.units import us


def test_compute_node_wires_cpu_hca_os():
    node = ComputeNode(Environment(), "host0", ClusterConfig())
    assert node.cpu.clock.period_ps == 500
    assert node.hca.node_id == "host0"
    assert node.hierarchy.l2 is not None


def test_compute_node_database_caches():
    node = ComputeNode(Environment(), "h", ClusterConfig(
        database_scaled_caches=True, cache_scale_divisor=2))
    assert node.hierarchy.l1d.config.size_bytes == 4 * 1024
    assert node.hierarchy.l2.config.size_bytes == 32 * 1024


def test_os_request_charges_paper_constants():
    env = Environment()
    node = ComputeNode(env, "h", ClusterConfig())

    def worker(env):
        yield from node.os_request(64 * 1024)

    env.process(worker(env))
    env.run()
    assert node.cpu.accounting.busy_ps == us(30) + 64 * us(0.27)
    assert node.os.requests == 1


def test_active_request_is_cheap_and_configurable():
    env = Environment()
    node = ComputeNode(env, "h", ClusterConfig(active_request_cost_ps=us(2)))

    def worker(env):
        yield from node.active_request()

    env.process(worker(env))
    env.run()
    assert node.cpu.accounting.busy_ps == us(2)


def test_storage_node_components():
    node = StorageNode(Environment(), "s0", ClusterConfig(num_disks=2))
    assert len(node.disks.disks) == 2
    assert node.scsi.config.bandwidth_bytes_per_s == 320e6
    assert node.tca.node_id == "s0"


def test_serve_read_orders_overheads_before_transfer():
    node = StorageNode(Environment(), "s0", ClusterConfig())
    flow, done = node.serve_read_burst(0, 0, 1024)
    # Data flow begins only after TCA (2 us) + SCSI (1.5 us) + positioning.
    assert flow >= us(3.5)
    assert done > flow


def test_single_disk_configuration():
    system = System(ClusterConfig(num_disks=1))
    assert system.storage.disks.aggregate_bandwidth == pytest.approx(50e6)


def test_nodes_share_environment():
    system = System(ClusterConfig(num_hosts=2))
    assert system.hosts[0].env is system.env
    assert system.storage.env is system.env
