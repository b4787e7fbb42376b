"""Unit tests for disk and disk-array models."""

import pytest

from repro.io import Disk, DiskArray, DiskConfig
from repro.sim import Environment
from repro.sim.units import ms, seconds


def test_first_read_pays_positioning():
    disk = Disk(Environment(), "d0")
    started, done = disk.access_burst(0, 0, 1024, write=False)
    config = disk.config
    positioning = config.seek_ps + config.half_rotation_ps
    assert started == positioning
    assert done == positioning + round(
        1024 / config.bandwidth_bytes_per_s * 1e12)


def test_sequential_read_skips_positioning():
    disk = Disk(Environment(), "d0")
    _, first = disk.access_burst(0, 0, 1024, write=False)
    # Continues where the first read left off.
    started, second = disk.access_burst(first, 1024, 1024, write=False)
    assert started == first
    assert second - first < first  # no seek the second time
    assert disk.stats.sequential_requests == 1


def test_random_read_pays_positioning_again():
    disk = Disk(Environment(), "d0")
    _, first = disk.access_burst(0, 0, 1024, write=False)
    disk.access_burst(first, 10_000_000, 1024, write=False)
    assert disk.stats.sequential_requests == 0
    assert disk.stats.positioning_ps == 2 * (disk.config.seek_ps
                                             + disk.config.half_rotation_ps)


def test_half_rotation_latency_10000rpm():
    config = DiskConfig(rpm=10_000)
    # 10 000 rpm = 6 ms/rev -> 3 ms half rotation.
    assert config.half_rotation_ps == ms(3)


def test_disk_arm_serializes_requests():
    disk = Disk(Environment(), "d0")
    # Two 1 s transfers (50 MB at 50 MB/s) reach the arm together.
    _, first = disk.access_burst(0, 0, 50_000_000, write=False)
    started, second = disk.access_burst(0, 50_000_000, 50_000_000,
                                        write=False)
    # The second (sequential) read cannot start before the first ends.
    assert started == first
    assert second >= first + seconds(1) - ms(1)


def test_array_aggregate_bandwidth():
    env = Environment()
    array = DiskArray(env, num_disks=2)
    assert array.aggregate_bandwidth == pytest.approx(100e6)


def test_array_parallel_read_takes_half_the_time():
    env = Environment()
    array = DiskArray(env, num_disks=2)
    _, array_time = array.read_burst(0, 0, 10_000_000)
    solo = Disk(env, "solo")
    _, single_time = solo.access_burst(0, 0, 10_000_000, write=False)
    assert array_time < single_time
    # 10 MB at 100 MB/s ~ 0.1 s (plus positioning); at 50 MB/s ~ 0.2 s.
    assert array_time == pytest.approx(single_time / 2, rel=0.1)


def test_array_transfer_analytic():
    env = Environment()
    array = DiskArray(env, num_disks=2)
    # 100 MB at 100 MB/s = 1 s.
    assert array.transfer_ps(100_000_000) == seconds(1)


def test_read_size_validation():
    env = Environment()
    disk = Disk(env, "d0")
    with pytest.raises(ValueError):
        disk.access_burst(0, 0, 0, write=False)
    array = DiskArray(env)
    with pytest.raises(ValueError):
        array.read_burst(0, 0, -1)
    assert disk.stats.requests == 0
    assert all(d.stats.requests == 0 for d in array.disks)


def test_config_validation():
    with pytest.raises(ValueError):
        DiskConfig(seek_ps=-1)
    with pytest.raises(ValueError):
        DiskConfig(rpm=0)
    with pytest.raises(ValueError):
        DiskConfig(bandwidth_bytes_per_s=0)
    env = Environment()
    with pytest.raises(ValueError):
        DiskArray(env, num_disks=0)


@pytest.mark.parametrize("num_disks, nbytes",
                         [(2, 1000), (2, 1001), (16, 1000), (16, 5)])
def test_sequential_stripe_never_repositions(num_disks, nbytes):
    """Back-to-back sequential requests on a pre-positioned array stay
    sequential on every spindle, even when the request size is not a
    multiple of the spindle count (or is below it)."""
    array = DiskArray(Environment(), num_disks=num_disks)
    array.position_heads(0)
    at = 0
    for index in range(4):
        started, done = array.read_burst(at, index * nbytes, nbytes)
        assert started == at
        at = done
    assert all(d.stats.positioning_ps == 0 for d in array.disks)
    assert all(d.stats.sequential_requests == d.stats.requests
               for d in array.disks)
    assert array.bytes_read == 4 * nbytes
