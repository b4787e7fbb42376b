"""Unit tests for the SCSI bus, OS cost model, and TCA."""

import pytest

from repro.cluster import ClusterConfig
from repro.cluster.node import StorageNode
from repro.io import OsCostModel, ScsiBus, ScsiConfig, TCA, TcaConfig
from repro.io.os_model import OsCostConfig
from repro.sim import Environment
from repro.sim.units import us


# ----------------------------------------------------------------------
# SCSI
# ----------------------------------------------------------------------
def test_transaction_includes_arbitration_and_selection():
    env = Environment()
    bus = ScsiBus(env)

    def worker(env):
        yield from bus.transaction(0)
        return env.now

    proc = env.process(worker(env))
    assert env.run(until=proc) == us(1.5)


def test_transfer_at_320mbs():
    env = Environment()
    bus = ScsiBus(env)
    # 320 KB at 320 MB/s = 1 ms = 1000 us, plus 1.5 us overhead.
    assert bus.occupancy_ps(320_000) == us(1.5) + us(1000)


def test_bus_serializes_transactions():
    env = Environment()
    bus = ScsiBus(env)
    completions = []

    def worker(env):
        yield from bus.transaction(3_200_000)  # 10 ms
        completions.append(env.now)

    env.process(worker(env))
    env.process(worker(env))
    env.run()
    assert completions[1] >= 2 * completions[0] - us(10)


def test_scsi_stats():
    env = Environment()
    bus = ScsiBus(env)

    def worker(env):
        yield from bus.transaction(1000)

    env.process(worker(env))
    env.run()
    assert bus.stats.transactions == 1
    assert bus.stats.bytes == 1000


def test_scsi_config_validation():
    with pytest.raises(ValueError):
        ScsiConfig(bandwidth_bytes_per_s=0)
    with pytest.raises(ValueError):
        ScsiConfig(arbitration_ps=-1)


# ----------------------------------------------------------------------
# OS cost model
# ----------------------------------------------------------------------
def test_paper_constants():
    model = OsCostModel()
    # 30 us fixed for a zero-byte request.
    assert model.request_cost_ps(0) == us(30)


def test_per_kb_charge():
    model = OsCostModel()
    # 64 KB request: 30 us + 64 * 0.27 us = 47.28 us.
    assert model.request_cost_ps(64 * 1024) == us(30) + 64 * us(0.27)


def test_os_model_accumulates():
    model = OsCostModel()
    model.request_cost_ps(1024)
    model.request_cost_ps(1024)
    assert model.requests == 2
    assert model.total_ps == 2 * (us(30) + us(0.27))


def test_os_model_rejects_negative():
    with pytest.raises(ValueError):
        OsCostModel().request_cost_ps(-1)


def test_os_config_validation():
    with pytest.raises(ValueError):
        OsCostConfig(fixed_per_request_ps=-1)


# ----------------------------------------------------------------------
# TCA
# ----------------------------------------------------------------------
def test_tca_request_processing_time():
    """A read's data phase starts after TCA decode (2 us) plus SCSI
    arbitration + selection; the TCA counts the request."""
    node = StorageNode(Environment(), "s0", ClusterConfig())
    node.disks.position_heads(0)  # no positioning: only the overheads
    started, _ = node.serve_read_burst(0, 0, 1024)
    assert started == us(2) + node.scsi.config.transaction_overhead_ps
    assert node.tca.requests_processed == 1


def test_tca_has_no_host_overheads():
    env = Environment()
    tca = TCA(env, "tca0")
    assert tca.config.send_overhead_ps == 0
    assert tca.config.recv_poll_ps == 0


def test_tca_config_validation():
    with pytest.raises(ValueError):
        TcaConfig(request_processing_ps=-1)
