"""Unit tests for the disk/storage write path."""

import pytest

from repro.cluster import ClusterConfig, System
from repro.io import Disk, DiskArray
from repro.sim import Environment
from repro.sim.units import seconds


def test_write_pays_positioning_then_streams():
    disk = Disk(Environment(), "d0")
    started, done = disk.access_burst(0, 0, 50_000_000, write=True)
    # Position first, then 1 s of transfer at 50 MB/s.
    assert started == disk.config.seek_ps + disk.config.half_rotation_ps
    assert done == started + seconds(1)
    assert disk.stats.bytes_written == 50_000_000


def test_sequential_write_skips_positioning():
    disk = Disk(Environment(), "d0")
    _, first = disk.access_burst(0, 0, 1024, write=True)
    disk.access_burst(first, 1024, 1024, write=True)
    assert disk.stats.sequential_requests == 1


def test_read_then_sequential_write_shares_head_position():
    disk = Disk(Environment(), "d0")
    _, read_done = disk.access_burst(0, 0, 4096, write=False)
    # Continues from the read's end.
    disk.access_burst(read_done, 4096, 4096, write=True)
    assert disk.stats.sequential_requests == 1


def test_array_write_stripes_across_spindles():
    array = DiskArray(Environment(), num_disks=2)
    _, done = array.write_burst(0, 0, 10_000_000)
    assert array.bytes_written == 10_000_000
    assert [d.stats.bytes_written for d in array.disks] == [5_000_000] * 2
    # 10 MB at 100 MB/s aggregate ~ 0.1 s + positioning.
    assert done < seconds(0.2)


def test_write_size_validation():
    env = Environment()
    disk = Disk(env, "d0")
    with pytest.raises(ValueError):
        disk.access_burst(0, 0, 0, write=True)
    array = DiskArray(env)
    with pytest.raises(ValueError):
        array.write_burst(0, 0, -1)


def test_storage_node_serve_write_counts_traffic():
    system = System(ClusterConfig())
    storage = system.storage
    done = storage.serve_write_burst(0, 0, 65536)
    assert done > 0
    assert storage.tca.traffic.bytes_in == 65536
    assert storage.disks.bytes_written == 65536
    assert storage.scsi.stats.transactions == 1
