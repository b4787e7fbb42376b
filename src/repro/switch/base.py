"""Conventional SAN switch: central output queue, cut-through routing.

The shaded part of the paper's Figure 2 — a normal switch in the style
of the IBM Switch-3: packets arrive on input ports, a routing-table
lookup plus crossbar traversal costs the 100 ns routing latency, and
packets queue at the output port for transmission.

The active switch (:mod:`repro.switch.active`) subclasses this and adds
the unshaded components; packets whose destination is the switch itself
are handed to :meth:`deliver_local`, which the base switch treats as an
error (a conventional switch is transparent to users).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..net.link import Link, LinkTransmissionError
from ..net.packet import Packet
from ..net.routing import RoutingError, RoutingTable
from ..sim.core import Environment
from ..sim.resources import Store
from ..sim.units import ns


@dataclass(frozen=True)
class SwitchConfig:
    """Architectural parameters of the (non-active) switch."""

    num_ports: int = 8
    routing_latency_ps: int = ns(100)
    #: Central output queue capacity, in packets per output port.
    output_queue_packets: int = 64

    def __post_init__(self):
        if self.num_ports < 2:
            raise ValueError("a switch needs at least 2 ports")
        if self.routing_latency_ps < 0:
            raise ValueError("routing latency cannot be negative")
        if self.output_queue_packets < 1:
            raise ValueError("output queue must hold at least one packet")


@dataclass
class SwitchStats:
    forwarded: int = 0
    delivered_local: int = 0
    dropped: int = 0
    #: Ports failed over after their tx link was declared dead.
    ports_failed: int = 0
    #: Packets abandoned by a transmitter on a dead port.
    tx_abandoned: int = 0


class PortNotConnected(Exception):
    """Raised when routing selects a port with no link attached."""


class BaseSwitch:
    """An N-port output-queued switch."""

    def __init__(self, env: Environment, name: str,
                 config: SwitchConfig = SwitchConfig()):
        self.env = env
        self.name = name
        self.config = config
        self.stats = SwitchStats()
        self.routing = RoutingTable(name)
        self._tx_links: List[Optional[Link]] = [None] * config.num_ports
        self._output_queues: List[Store] = [
            Store(env, capacity=config.output_queue_packets)
            for _ in range(config.num_ports)
        ]

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, port: int, tx_link: Link, rx_link: Link) -> None:
        """Attach a duplex pair of links to ``port`` and start serving it.

        Only a connected port has a transmitter; routing or injecting a
        packet to any other port raises :class:`PortNotConnected`.
        """
        if not 0 <= port < self.config.num_ports:
            raise ValueError(f"{self.name}: port {port} out of range")
        if self._tx_links[port] is not None:
            raise ValueError(f"{self.name}: port {port} already connected")
        self._tx_links[port] = tx_link
        tx_link.add_down_listener(lambda: self._port_down(port, tx_link))
        self.env.process(self._transmitter(port, tx_link),
                         name=f"{self.name}-tx{port}", daemon=True)
        self.env.process(self._reader(port, rx_link),
                         name=f"{self.name}-rx{port}", daemon=True)

    def connected_ports(self) -> List[int]:
        """Ports with a link attached."""
        return [p for p, link in enumerate(self._tx_links) if link is not None]

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _reader(self, port: int, rx_link: Link):
        # Routing is inline: an input port is a FIFO, so a packet that
        # cannot enter its (full) output queue blocks the port, credits
        # run out, and backpressure propagates to the sender — packets
        # are never dropped or buffered beyond the modelled queues.
        while True:
            packet = yield from rx_link.receive()
            yield from self._route(packet, port)

    def _route(self, packet: Packet, in_port: int):
        # Routing-table lookup + crossbar traversal.  The (src, dst)
        # flow key pins every packet of a flow to one ECMP member, so
        # multipath cores never reorder a message's packets.
        yield self.env.timeout(self.config.routing_latency_ps)
        if packet.dst == self.name:
            yield from self.deliver_local(packet, in_port)
            return
        try:
            out_port = self.routing.lookup(packet.dst,
                                           flow_key=(packet.src, packet.dst))
        except RoutingError:
            # On a healthy fabric this is a wiring bug and must stay
            # loud.  With failed-over ports it is expected degradation:
            # the packet has nowhere to go, so it is dropped here and
            # end-to-end recovery (the collective retry) takes over —
            # killing the reader would wedge the port forever.
            if not self.routing.down_ports:
                raise
            self.stats.dropped += 1
            trace = self.env.trace
            if trace is not None:
                trace.instant(self.name, "packet.no_route", self.env.now,
                              dst=packet.dst, msg=packet.message_id)
            return
        self._check_connected(out_port)
        self.stats.forwarded += 1
        yield self._output_queues[out_port].put(packet)

    def _check_connected(self, port: int) -> None:
        # Only a connected port has a transmitter to drain its queue.
        if self._tx_links[port] is None:
            raise PortNotConnected(
                f"{self.name}: routed packet to unconnected port {port}")

    def _port_down(self, port: int, link: Link) -> None:
        """The tx link on ``port`` was declared dead: fail over.

        Fired by the link's down listener (first retry-budget
        exhaustion) or by a heartbeat monitor that noticed a dead
        neighbor.  The routing table stops offering the port — ECMP
        flows re-hash onto survivors — and the event is traced so
        detection latency is measurable.
        """
        if not self.routing.mark_down(port):
            return
        self.stats.ports_failed += 1
        trace = self.env.trace
        if trace is not None:
            trace.instant(self.name, "port.down", self.env.now,
                          port=port, link=link.name)

    def port_restore(self, port: int) -> None:
        """Readmit a repaired port (management plane, after revival)."""
        self.routing.restore(port)

    def _transmitter(self, port: int, link: Link):
        queue = self._output_queues[port]
        while True:
            packet = yield queue.get()
            try:
                yield from link.send(packet)
            except LinkTransmissionError:
                # The packet is gone (the link declared the port down and
                # recycled its buffer); the transmitter must survive to
                # serve the port if it is ever repaired.  End-to-end
                # recovery is the collective's retry loop, not ours.
                self.stats.tx_abandoned += 1

    def inject(self, packet: Packet, out_port: Optional[int] = None):
        """Queue a locally originated packet for transmission.

        Used by the active switch's send unit (the extra crossbar port:
        the paper expands the crossbar from N x N to (N+1) x N).
        """
        port = (self.routing.lookup(packet.dst,
                                    flow_key=(packet.src, packet.dst))
                if out_port is None else out_port)
        self._check_connected(port)
        yield self._output_queues[port].put(packet)

    def deliver_local(self, packet: Packet, in_port: int):
        """A packet addressed to the switch itself."""
        self.stats.dropped += 1
        raise RoutingToSwitchError(
            f"{self.name}: conventional switch cannot accept packet "
            f"addressed to itself (handler {packet.active})")
        yield  # pragma: no cover - makes this a generator

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name}: "
                f"{self.config.num_ports} ports, {self.stats.forwarded} forwarded>")


class RoutingToSwitchError(Exception):
    """A non-active switch received an active (switch-addressed) packet."""
