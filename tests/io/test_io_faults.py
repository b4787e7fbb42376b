"""Storage-layer recovery: transient disk errors and SCSI parity retries."""

import pytest

from repro.faults import DiskFaults, FaultInjector, FaultPlan, ScsiFaults
from repro.io import Disk, DiskArray, DiskError, ScsiBus, ScsiError
from repro.sim import Environment
from repro.sim.units import us


def _disk_injector(disk_faults, seed=0):
    return FaultInjector(FaultPlan(disk=disk_faults), seed=seed)


# ----------------------------------------------------------------------
# Disk transient errors
# ----------------------------------------------------------------------
def test_transient_read_error_is_retried_and_succeeds():
    disk = Disk(Environment(), "d")
    disk.attach_faults(_disk_injector(DiskFaults(error_requests=(0,))))

    disk.access_burst(0, 0, 4096, write=False)
    assert disk.stats.transient_errors == 1
    assert disk.stats.retries == 1
    # The data is accounted exactly once despite the replay.
    assert disk.stats.bytes_read == 4096
    assert disk.stats.requests == 1


def test_transient_error_costs_time_and_repositioning():
    clean = Disk(Environment(), "d")
    _, clean_time = clean.access_burst(0, 0, 4096, write=False)

    disk = Disk(Environment(), "d")
    disk.attach_faults(_disk_injector(
        DiskFaults(error_requests=(0,), retry_backoff_ps=us(500))))
    started, done = disk.access_burst(0, 0, 4096, write=False)
    # Half a wasted transfer, the firmware backoff, and a second
    # positioning (the recalibration invalidated the head).
    assert done > clean_time + us(500)
    assert disk.stats.positioning_ps > clean.stats.positioning_ps
    # Data first flowed on the failed attempt.
    assert started == clean.config.seek_ps + clean.config.half_rotation_ps


def test_disk_error_after_bounded_retries():
    disk = Disk(Environment(), "d")
    disk.attach_faults(_disk_injector(
        DiskFaults(error_requests=(0, 1), max_retries=1,
                   retry_backoff_ps=us(1))))
    with pytest.raises(DiskError):
        disk.access_burst(0, 0, 1024, write=False)
    assert disk.stats.transient_errors == 2
    assert disk.stats.retries == 1
    assert disk.stats.bytes_read == 0


def test_write_errors_use_the_write_rate():
    disk = Disk(Environment(), "d")
    disk.attach_faults(_disk_injector(
        DiskFaults(write_error_rate=1.0, max_retries=0)))
    with pytest.raises(DiskError):
        disk.access_burst(0, 0, 1024, write=True)
    # Reads are unaffected: the read rate is zero.
    disk.access_burst(0, 0, 1024, write=False)
    assert disk.stats.bytes_read == 1024


def test_disk_array_aggregates_fault_counters():
    array = DiskArray(Environment(), num_disks=2)
    array.attach_faults(_disk_injector(
        DiskFaults(error_requests=(0,), retry_backoff_ps=us(1))))
    array.read_burst(0, 0, 8192)
    # Request 0 on each spindle was scripted to fail once.
    assert array.transient_errors == 2
    assert array.retries == 2
    assert array.bytes_read == 8192


def test_fault_free_disk_timing_unchanged_by_attachment():
    """Attaching an injector with a disabled disk plan costs nothing."""
    plain = Disk(Environment(), "d")
    plain_schedule = plain.access_burst(0, 0, 65536, write=False)

    disk = Disk(Environment(), "d")
    disk.attach_faults(_disk_injector(DiskFaults()))
    assert disk.access_burst(0, 0, 65536, write=False) == plain_schedule


# ----------------------------------------------------------------------
# SCSI parity errors
# ----------------------------------------------------------------------
class _ScriptedScsi:
    """Injector stub answering scsi_error from a fixed script."""

    def __init__(self, script, max_retries=4):
        self.plan = FaultPlan(scsi=ScsiFaults(error_rate=0.5,
                                              max_retries=max_retries))
        self._script = list(script)

    def scsi_error(self, bus_name):
        return self._script.pop(0) if self._script else False


def test_scsi_parity_error_is_replayed():
    env = Environment()
    bus = ScsiBus(env, "bus")
    bus.attach_faults(_ScriptedScsi([True, False]))
    proc = env.process(bus.transaction(4096))
    env.run(until=proc)
    assert bus.stats.parity_errors == 1
    assert bus.stats.retries == 1
    assert bus.stats.transactions == 1
    assert bus.stats.bytes == 4096
    # The wasted attempt still occupied the bus.
    assert bus.stats.busy_ps == 2 * bus.occupancy_ps(4096)


def test_scsi_error_after_bounded_retries():
    env = Environment()
    bus = ScsiBus(env, "bus")
    bus.attach_faults(_ScriptedScsi([True] * 10, max_retries=2))
    failures = []

    def initiator(env):
        try:
            yield from bus.transaction(1024)
        except ScsiError as exc:
            failures.append(exc)

    env.process(initiator(env))
    env.run()
    assert len(failures) == 1
    assert bus.stats.parity_errors == 3
    assert bus.stats.retries == 2
    assert bus.stats.transactions == 0


def test_scsi_random_errors_are_deterministic():
    def run(seed):
        env = Environment()
        bus = ScsiBus(env, "bus")
        bus.attach_faults(FaultInjector(
            FaultPlan(scsi=ScsiFaults(error_rate=0.4, max_retries=50)),
            seed=seed))

        def initiator(env):
            for _ in range(20):
                yield from bus.transaction(512)

        proc = env.process(initiator(env))
        env.run(until=proc)
        return bus.stats.parity_errors, env.now

    assert run(3) == run(3)
    assert run(3)[1] != run(4)[1] or run(3)[0] != run(4)[0]
