"""Compute and storage node assemblies."""

from __future__ import annotations

from ..cpu.host import HOST_FREQ_HZ, HostCPU
from ..io.disk import DiskArray
from ..io.os_model import OsCostModel
from ..io.scsi import ScsiBus
from ..io.tca import TCA
from ..mem.hierarchy import build_host_hierarchy
from ..net.hca import HCA
from ..sim.core import Environment
from ..sim.units import Clock
from .config import ClusterConfig


class ComputeNode:
    """A host: CPU + cache hierarchy + RDRAM + HCA + OS cost model."""

    def __init__(self, env: Environment, name: str, config: ClusterConfig):
        self.env = env
        self.name = name
        self.config = config
        clock = Clock(HOST_FREQ_HZ)
        self.hierarchy = build_host_hierarchy(
            clock, scaled_for_database=config.database_scaled_caches,
            extra_scale_divisor=config.cache_scale_divisor)
        self.cpu = HostCPU(env, self.hierarchy, name=name, clock=clock)
        self.hca = HCA(env, name, self.cpu, config=config.hca)
        self.os = OsCostModel(config.os)

    # ------------------------------------------------------------------
    # I/O request posting costs
    # ------------------------------------------------------------------
    def os_request(self, nbytes: int):
        """Charge the full OS cost of a host-destined disk request."""
        yield from self.cpu.busy(self.os.request_cost_ps(nbytes))

    def active_request(self):
        """Charge the (small) cost of posting a switch-destined request.

        The data never enters host memory, so there is no completion
        interrupt, no copy, and no kernel buffer management — "most of
        the busy time in the normal cases is disk I/O-related overhead
        like interrupt processing, all of which is eliminated in the
        active switch version" (Tar analysis).
        """
        yield from self.cpu.busy(self.config.active_request_cost_ps)

    def __repr__(self) -> str:
        return f"<ComputeNode {self.name}>"


class StorageNode:
    """A storage target: TCA + SCSI bus + disk array."""

    def __init__(self, env: Environment, name: str, config: ClusterConfig):
        self.env = env
        self.name = name
        self.config = config
        self.tca = TCA(env, name, config=config.tca)
        self.scsi = ScsiBus(env, f"{name}-scsi", config=config.scsi)
        self.disks = DiskArray(env, f"{name}-disks",
                               num_disks=config.num_disks, config=config.disk)

    def attach_faults(self, injector) -> None:
        """Subject this node's bus and spindles to ``injector``'s plan."""
        self.scsi.attach_faults(injector)
        self.disks.attach_faults(injector)

    def _accept(self, at_ps: int, nbytes: int) -> int:
        """TCA request decode, then SCSI arbitration + selection, for a
        request arriving at ``at_ps``; returns when the data phase
        starts."""
        self.tca.requests_processed += 1
        self.scsi.stats.transactions += 1
        self.scsi.stats.bytes += nbytes
        return (at_ps + self.tca.tca_config.request_processing_ps
                + self.scsi.config.transaction_overhead_ps)

    def serve_read_burst(self, at_ps: int, offset: int, nbytes: int):
        """Schedule a sequential read arriving at the TCA at ``at_ps``.

        The SCSI data phase (320 MB/s) overlaps the disk transfer
        (100 MB/s aggregate), so the disks are the bottleneck; the bus
        contributes its per-transaction arbitration + selection
        overhead up front.  Zero kernel events: requests must come in
        nondecreasing ``at_ps`` order (callers issue at real simulated
        time, so this holds by construction).  Returns
        ``(started_ps, done_ps)`` — when the first data flows and when
        the last byte leaves the node — with every TCA/SCSI/disk
        counter updated.
        """
        started, done = self.disks.read_burst(self._accept(at_ps, nbytes),
                                              offset, nbytes)
        self.tca.traffic.bytes_out += nbytes
        return started, done

    def serve_write_burst(self, at_ps: int, offset: int, nbytes: int):
        """Schedule a write from the SAN arriving at ``at_ps``; returns
        ``done_ps``, when the last byte is committed to disk."""
        _, done = self.disks.write_burst(self._accept(at_ps, nbytes),
                                         offset, nbytes)
        self.tca.traffic.bytes_in += nbytes
        return done

    def __repr__(self) -> str:
        return f"<StorageNode {self.name}>"
