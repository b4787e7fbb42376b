"""Target channel adapter: the storage node's network interface.

The TCA bridges the SCSI bus to the SAN: it accepts read/write requests
from the fabric, drives the disks over SCSI, and streams the data back
as MTU packets.  Unlike the HCA it has no host CPU to charge — its
per-request processing is fixed firmware time.

Reliability: the TCA inherits the adapter's ACK/NACK retransmission
behaviour (its tx link retransmits dropped/corrupted data packets with
timeout + exponential backoff), and it reports request progress to the
kernel's failure diagnostics so a chaotic run that wedges mid-stream
shows how far the storage side got.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.hca import ChannelAdapter, HcaConfig
from ..sim.core import Environment
from ..sim.units import us


@dataclass(frozen=True)
class TcaConfig:
    """Firmware costs of the target adapter."""

    #: Request parsing + SCSI command setup.
    request_processing_ps: int = us(2.0)
    #: Per-packet segmentation cost when streaming data out.
    per_packet_ps: int = us(0.05)

    def __post_init__(self):
        if self.request_processing_ps < 0 or self.per_packet_ps < 0:
            raise ValueError("TCA costs cannot be negative")


class TCA(ChannelAdapter):
    """Storage-side adapter."""

    def __init__(self, env: Environment, node_id: str,
                 config: TcaConfig = TcaConfig()):
        # The generic adapter machinery reuses HcaConfig for packet costs.
        super().__init__(env, node_id,
                         HcaConfig(send_overhead_ps=0, recv_poll_ps=0,
                                   per_packet_ps=config.per_packet_ps))
        self.tca_config = config
        self.requests_processed = 0
        env.add_context_provider(self._failure_context)

    def _failure_context(self) -> dict:
        status = {"requests": self.requests_processed}
        status.update({key: value for key, value in self.reliability().items()
                       if value})
        return {f"tca:{self.node_id}": str(status)}
