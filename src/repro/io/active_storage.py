"""Active storage devices — the related-work comparison point.

The paper positions active *switches* against active *disks*
(Acharya/Riedel/Keeton): devices with their own embedded processor that
filter data before it enters the fabric.  It also notes the two
compose: "If active I/O devices do become prevalent, they can also be
used within our active switch system, creating a two-level active I/O
system."

:class:`ActiveStorageNode` extends the storage node with an embedded
device processor (active-disk proposals used cores slower than switch
CPUs — we default to 200 MHz) and a filtered-read operation: records
are scanned on the device as they come off the platters, and only
passing records are shipped onto the SAN.  The device CPU processes in
line with the disk stream, so a filtered read takes
``max(disk time, filter time)`` plus start-up.

This enables the filter-placement comparison (host vs switch vs device
vs two-level) in :mod:`repro.experiments.two_level`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.node import StorageNode
from ..cpu.switch_cpu import SwitchCPU
from ..sim.core import Environment
from ..sim.units import Clock


@dataclass(frozen=True)
class ActiveStorageConfig:
    """Parameters of the device's embedded processor."""

    #: Active-disk proposals assumed drive-class embedded cores.
    cpu_freq_hz: float = 200_000_000.0
    #: Extra firmware cost per filtered request (setup of the scan).
    filter_setup_ps: int = 2_000_000  # 2 us

    def __post_init__(self):
        if self.cpu_freq_hz <= 0:
            raise ValueError("device CPU frequency must be positive")
        if self.filter_setup_ps < 0:
            raise ValueError("filter setup cost cannot be negative")


class ActiveStorageNode(StorageNode):
    """A storage target with an embedded filtering processor.

    Keeps :class:`repro.cluster.node.StorageNode`'s interface
    (``serve_read`` / ``serve_write``) and adds
    :meth:`serve_filtered_read`.
    """

    def __init__(self, env: Environment, name: str, cluster_config,
                 active_config: ActiveStorageConfig = ActiveStorageConfig()):
        super().__init__(env, name, cluster_config)
        self.active_config = active_config
        self.cpu = SwitchCPU(env, cpu_id=0, name=f"{name}-cpu",
                             clock=Clock(active_config.cpu_freq_hz))
        #: Bytes shipped onto the fabric after device-side filtering.
        self.filtered_bytes_out = 0
        self.unfiltered_bytes_read = 0

    # ------------------------------------------------------------------
    # Device-side filtering
    # ------------------------------------------------------------------
    def serve_filtered_read(self, offset: int, nbytes: int,
                            filter_cycles: float, out_bytes: int,
                            started=None):
        """Read ``nbytes``, filter on the device CPU, ship ``out_bytes``.

        The device CPU scans records in line with the platter stream:
        completion is ``max(disk transfer, filter compute)`` after the
        request/positioning overheads (the same overlap structure as
        switch handlers, minus the fabric hop).
        """
        if out_bytes < 0 or out_bytes > nbytes:
            raise ValueError(
                f"filtered output {out_bytes} outside [0, {nbytes}]")
        yield from self.tca.process_request()
        yield self.env.timeout(self.active_config.filter_setup_ps)
        yield self.env.timeout(self.scsi.config.transaction_overhead_ps)
        self.scsi.stats.transactions += 1
        self.scsi.stats.bytes += nbytes

        disk_done = self.env.process(
            self.disks.read(offset, nbytes, started=started),
            name=f"{self.name}-filtered-read")
        compute_ps = self.cpu.clock.cycles(filter_cycles)
        self.cpu.accounting.add_busy(compute_ps)
        yield self.env.timeout(compute_ps)
        if not disk_done.processed:
            wait_start = self.env.now
            yield disk_done
            self.cpu.accounting.add_stall(self.env.now - wait_start)

        self.unfiltered_bytes_read += nbytes
        self.filtered_bytes_out += out_bytes
        self.tca.traffic.bytes_out += out_bytes

    def __repr__(self) -> str:
        return (f"<ActiveStorageNode {self.name}: "
                f"{self.unfiltered_bytes_read} B read, "
                f"{self.filtered_bytes_out} B shipped>")
