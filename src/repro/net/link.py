"""SAN links with credit-based flow control.

Each link direction sustains 1 GB/s (the paper's switch supports 1 GB/s
bidirectional per port) and uses credit-based flow control: a sender
consumes one credit per packet and the receiver returns the credit when
it drains the packet from the link's delivery queue.

Two granularities are offered:

* :meth:`Link.send` — full per-packet discrete-event transmission, used
  for small active messages (reductions, request headers);
* :meth:`Link.occupancy_ps` — analytic serialization time for bulk
  streams, used by the block-level I/O pipeline where simulating every
  one of ~250 000 MTU packets would be wasted effort (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from ..metrics.sampling import BusyTracker
from ..sim.core import Environment
from ..sim.events import Event
from ..sim.resources import Container, Resource, Store
from ..sim.units import ns, transfer_ps
from .packet import Packet


class LinkTransmissionError(Exception):
    """A packet exhausted its retransmission budget."""


#: Retry policy used for a fail-stopped link when no fault plan is
#: attached (a link can die by explicit `fail()` without an injector).
#: Constructed lazily to avoid an import cycle with repro.faults.
_FALLBACK_POLICY = None


def _fallback_policy():
    global _FALLBACK_POLICY
    if _FALLBACK_POLICY is None:
        from ..faults.plan import LinkFaults
        _FALLBACK_POLICY = LinkFaults()
    return _FALLBACK_POLICY


@dataclass(frozen=True)
class LinkConfig:
    """Physical parameters of one link direction."""

    bandwidth_bytes_per_s: float = 1.0e9
    propagation_ps: int = ns(20)
    credits: int = 8

    def __post_init__(self):
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.propagation_ps < 0:
            raise ValueError("propagation delay cannot be negative")
        if self.credits < 1:
            raise ValueError("need at least one credit")


@dataclass
class LinkStats:
    """Per-direction traffic counters, split by outcome.

    ``sent`` counts serialization attempts (retransmissions included);
    ``delivered`` counts packets drained intact by the receiver; drops
    and CRC discards account for the difference.  When the receiver has
    drained everything, ``packets_sent == packets_delivered +
    packets_dropped + packets_corrupted`` — the chaos suite's
    conservation property.
    """

    packets_sent: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    packets_corrupted: int = 0
    #: Extra attempts caused by drops/corruptions (first tries excluded).
    retransmits: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    #: Backed-off ACK-timeout waits clamped to ``max_backoff_ps``.
    capped_backoffs: int = 0
    #: Packets abandoned after the full retry budget (fail-stop signal).
    packets_abandoned: int = 0

    # Pre-reliability aliases: "the" packet/byte count of a link is what
    # it actually delivered.
    @property
    def packets(self) -> int:
        return self.packets_delivered

    @property
    def bytes(self) -> int:
        return self.bytes_delivered


class Link:
    """One unidirectional link delivering packets into a FIFO."""

    def __init__(self, env: Environment, name: str,
                 config: LinkConfig = LinkConfig()):
        self.env = env
        self.name = name
        self.config = config
        self.stats = LinkStats()
        #: Delivered packets awaiting the receiver.
        self.delivered: Store = Store(env, name=f"{name}.delivered")
        self._credits = Container(env, capacity=config.credits,
                                  init=config.credits,
                                  name=f"{name}.credits")
        self._wire = Resource(env, capacity=1, name=f"{name}.wire")
        #: When the wire finishes its last bulk hold: block-path
        #: transfers queue on this scalar, not on ``_wire`` (see
        #: System._reserve_wires).
        self.bulk_free_ps = 0
        self.busy = BusyTracker(env)
        #: Credits currently consumed by in-flight packets; every code
        #: path that gets/puts a credit updates this, so conservation is
        #: checkable at any instant (see :meth:`assert_credit_conservation`).
        self._credits_outstanding = 0
        self._injector = None
        #: Fail-stop state: simulation time the wire went dead (ground
        #: truth; nobody on the data path reads this directly — senders
        #: *discover* it via ACK-timeout escalation).
        self._down_since: Optional[int] = None
        #: When the sender side *declared* this link dead (a packet
        #: exhausted its retry budget); detection latency is the gap to
        #: ``_down_since``.
        self.declared_down_at: Optional[int] = None
        self._down_listeners: List[Callable[[], None]] = []

    def attach_faults(self, injector) -> None:
        """Subject this link to ``injector``'s fault plan (idempotent)."""
        self._injector = injector

    # ------------------------------------------------------------------
    # Fail-stop state
    # ------------------------------------------------------------------
    @property
    def is_down(self) -> bool:
        """Ground truth: is the wire currently dead?"""
        return self._down_since is not None

    def fail(self) -> None:
        """Fail-stop this link direction: every copy sent from now on
        vanishes in the fabric (the sender sees only ACK silence)."""
        if self._down_since is None:
            self._down_since = self.env.now

    def revive(self) -> None:
        """Bring a fail-stopped wire back.  Sender-side declarations are
        *not* reset — a revived path must be re-validated by the
        management plane (``Fabric.revive_*`` restores routing)."""
        self._down_since = None

    def add_down_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener`` when the sender declares this link dead
        (first retry-budget exhaustion).  The owning switch port uses
        this to fail over its routing table."""
        self._down_listeners.append(listener)

    def _declare_down(self) -> None:
        if self.declared_down_at is not None:
            return
        self.declared_down_at = self.env.now
        trace = self.env.trace
        if trace is not None:
            trace.instant(self.name, "link.down_declared", self.env.now,
                          down_since=(self._down_since
                                      if self._down_since is not None
                                      else -1))
        for listener in self._down_listeners:
            listener()

    # ------------------------------------------------------------------
    # Packet-level path
    # ------------------------------------------------------------------
    def send(self, packet: Packet):
        """Transmit one packet reliably.

        The generator completes once the packet has *successfully* left
        the wire (so a sender can pipeline back-to-back packets);
        propagation and delivery continue asynchronously.  Under an
        attached fault plan a dropped copy is retransmitted after an
        exponentially backed-off ACK timeout, and a corrupted copy is
        retransmitted as soon as the receiving port's CRC check NACKs
        it.  Raises :class:`LinkTransmissionError` when a packet
        exhausts ``max_retries``.
        """
        injector = self._injector
        faults = injector.plan.link if injector is not None else None
        yield self._credits.get(1)
        self._credits_outstanding += 1
        attempt = 0
        while True:
            with self._wire.request() as grant:
                yield grant
                self.busy.enter()
                start_ps = self.env.now
                try:
                    yield self.env.timeout(
                        self.serialization_ps(packet.wire_bytes))
                finally:
                    self.busy.exit()
            self.stats.packets_sent += 1
            self.stats.bytes_sent += packet.wire_bytes
            if self._down_since is not None:
                # Fail-stop: the copy vanishes regardless of any fault
                # plan — the sender only ever observes ACK silence.  No
                # injector draw, so transient streams stay aligned.
                outcome = "down"
            else:
                outcome = ("ok" if faults is None or not faults.enabled
                           else injector.link_outcome(self.name))
            trace = self.env.trace
            if trace is not None:
                trace.span(self.name, "link.xmit", start_ps,
                           self.env.now - start_ps, msg=packet.message_id,
                           seq=packet.seq, bytes=packet.wire_bytes,
                           outcome=outcome, attempt=attempt)
            if outcome == "ok":
                # The compose buffer is recycled exactly once, and only
                # now: a dropped/corrupted copy still needs the buffer
                # for its retransmission.
                if packet.notify is not None and not packet.notify.triggered:
                    packet.notify.succeed()
                self._deliver(packet)
                return
            # A dead wire needs a retry policy even without a fault plan.
            policy = faults if faults is not None else _fallback_policy()
            if attempt >= policy.max_retries:
                # The last copy still goes in its outcome bucket so that
                # sent == delivered + dropped + corrupted holds even for
                # packets that exhaust their retries.
                if outcome == "corrupt":
                    self.stats.packets_corrupted += 1
                else:
                    self.stats.packets_dropped += 1
                self.stats.packets_abandoned += 1
                self._credits_outstanding -= 1
                yield self._credits.put(1)
                # Recycle the compose buffer: there will be no further
                # retransmission to pin it for.
                if packet.notify is not None and not packet.notify.triggered:
                    packet.notify.succeed()
                # ACK-timeout escalation: a packet that stayed silent
                # through the whole budget declares the port dead.
                self._declare_down()
                raise LinkTransmissionError(
                    f"{self.name}: packet msg={packet.message_id} "
                    f"seq={packet.seq} still {outcome} after "
                    f"{policy.max_retries} retries")
            self.stats.retransmits += 1
            if outcome in ("drop", "down"):
                # The copy vanished in the fabric: its credit must come
                # back *here* — nobody downstream will ever return it.
                self.stats.packets_dropped += 1
                self._credits_outstanding -= 1
                yield self._credits.put(1)
                backoff_ps = int(
                    policy.ack_timeout_ps * policy.backoff_factor ** attempt)
                if policy.max_backoff_ps is not None \
                        and backoff_ps > policy.max_backoff_ps:
                    backoff_ps = policy.max_backoff_ps
                    self.stats.capped_backoffs += 1
                yield self.env.timeout(backoff_ps)
                yield self._credits.get(1)
                self._credits_outstanding += 1
            else:  # corrupt: the copy arrives, fails CRC, and is NACKed.
                nack = self.env.event()
                self._deliver(replace(packet, corrupted=True, nack=nack,
                                      notify=None))
                yield nack
                # NACK turnaround: control packet propagating back.
                yield self.env.timeout(self.config.propagation_ps)
                yield self._credits.get(1)
                self._credits_outstanding += 1
            attempt += 1

    def _deliver(self, packet: Packet) -> None:
        """Put ``packet`` into :attr:`delivered` after the propagation
        delay.

        Every packet hop calls this, so it runs on callbacks, not a
        process.  The propagation timeout is scheduled by a zero-delay
        start event, not right away: a process's first step would take
        that place in the event order, and events that tie with the
        arrival resolve by it.
        """
        env = self.env
        propagation_ps = self.config.propagation_ps
        put = self.delivered.put

        def propagate(_start):
            env.timeout(propagation_ps).callbacks.append(
                lambda _arrived: put(packet))

        start = Event(env)
        start.callbacks.append(propagate)
        start.succeed()

    def receive(self):
        """Take the next intact packet and return its credit.

        Corrupted copies are discarded here — the port's CRC check —
        after returning their credit and firing the NACK that triggers
        the sender's retransmission, so callers only ever see packets
        that passed the CRC.
        """
        while True:
            packet = yield self.delivered.get()
            self._credits_outstanding -= 1
            yield self._credits.put(1)
            if packet.corrupted:
                self.stats.packets_corrupted += 1
                if packet.nack is not None and not packet.nack.triggered:
                    packet.nack.succeed()
                continue
            self.stats.packets_delivered += 1
            self.stats.bytes_delivered += packet.wire_bytes
            trace = self.env.trace
            if trace is not None:
                trace.instant(self.name, "link.deliver", self.env.now,
                              msg=packet.message_id, seq=packet.seq,
                              bytes=packet.wire_bytes)
            return packet

    def assert_credit_conservation(self) -> None:
        """Every credit is either free or held by one in-flight packet."""
        free = self._credits.level
        outstanding = self._credits_outstanding
        if outstanding < 0 or free + outstanding != self.config.credits:
            raise AssertionError(
                f"{self.name}: credit conservation violated — "
                f"{free} free + {outstanding} outstanding != "
                f"{self.config.credits} total")

    # ------------------------------------------------------------------
    # Analytic path for bulk streams
    # ------------------------------------------------------------------
    def serialization_ps(self, nbytes: int) -> int:
        """Wire time for ``nbytes`` at link bandwidth."""
        return transfer_ps(nbytes, self.config.bandwidth_bytes_per_s)

    def occupancy_ps(self, payload_bytes: int, mtu: int = 512,
                     header_bytes: int = 16) -> int:
        """Wire time for a bulk payload including per-packet headers."""
        if payload_bytes <= 0:
            return 0
        packets = -(-payload_bytes // mtu)
        return self.serialization_ps(payload_bytes + packets * header_bytes)

    def utilization(self) -> float:
        """Measured wire busy fraction (packet-path traffic only)."""
        return self.busy.utilization()

    def __repr__(self) -> str:
        return (f"<Link {self.name}: {self.config.bandwidth_bytes_per_s / 1e9:g} GB/s, "
                f"{self.stats.packets} pkts>")


class DuplexLink:
    """A full-duplex link: two independent directions."""

    def __init__(self, env: Environment, a: str, b: str,
                 config: LinkConfig = LinkConfig()):
        self.a_to_b = Link(env, f"{a}->{b}", config)
        self.b_to_a = Link(env, f"{b}->{a}", config)

    def attach_faults(self, injector) -> None:
        self.a_to_b.attach_faults(injector)
        self.b_to_a.attach_faults(injector)

    def direction(self, from_a: bool) -> Link:
        return self.a_to_b if from_a else self.b_to_a
