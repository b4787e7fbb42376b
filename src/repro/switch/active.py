"""The active switch — the paper's core contribution.

Extends the conventional output-queued switch with the unshaded
components of Figure 2:

* 1-4 embedded :class:`SwitchCPU` cores (500 MHz, tiny I/D caches);
* 16 x 512 B on-chip :class:`DataBuffer`\\ s with per-line valid bits,
  managed by the DBA (:class:`DataBufferPool`);
* a per-CPU 16-entry direct-mapped :class:`AddressTranslationBuffer`;
* a :class:`JumpTable` + dispatch unit (:class:`CpuScheduler`) that
  invoke handlers message-driven style from the 6-bit handler ID;
* a :class:`SendUnit` that injects CPU-composed messages through the
  (N+1) x N crossbar.

Any packet whose destination is the switch itself is an active message:
the crossbar steers its payload into a free data buffer (line-by-line,
setting valid bits) while the header goes to the dispatch unit in
parallel — so a handler can begin processing before the copy completes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Set, Tuple

from ..cpu.switch_cpu import SwitchCPU
from ..faults.injector import HandlerCrashError
from ..net.packet import MTU, Message, Packet
from ..sim.core import Environment
from ..sim.units import transfer_ps
from .atb import AddressTranslationBuffer
from .base import BaseSwitch, SwitchConfig
from .data_buffer import DataBufferPool
from .dispatch import CpuScheduler, DispatchError, JumpTable
from .handler import HandlerContext
from .send_unit import SendUnit


@dataclass(frozen=True)
class ActiveSwitchConfig:
    """Parameters of the active additions ("we support up to 4 switch
    processors per active switch")."""

    num_cpus: int = 1
    num_buffers: int = 16
    crossbar_bandwidth_bytes_per_s: float = 1.0e9
    #: Embedded-core clock (paper: 500 MHz, a quarter of the host's).
    cpu_freq_hz: float = 500_000_000.0

    def __post_init__(self):
        if not 1 <= self.num_cpus <= 4:
            raise ValueError("active switch supports 1-4 switch CPUs")
        if self.num_buffers < 2:
            raise ValueError("need at least 2 data buffers (one in, one out)")
        if self.crossbar_bandwidth_bytes_per_s <= 0:
            raise ValueError("crossbar bandwidth must be positive")
        if self.cpu_freq_hz <= 0:
            raise ValueError("switch CPU frequency must be positive")


@dataclass
class DegradationStats:
    """What the graceful active→normal degradation machinery did."""

    #: Handler invocations that died but were unwound instead of
    #: poisoning the switch.
    contained_crashes: int = 0
    #: Messages whose ATB mapping failed parity at dispatch time.
    atb_corruptions: int = 0
    #: Messages forwarded unprocessed to their fallback destination.
    fallback_messages: int = 0
    fallback_packets: int = 0
    quarantined_handlers: int = 0
    #: Messages dropped because they had to degrade but name no
    #: fallback destination (a collective's deadline recovers them).
    dropped_messages: int = 0


#: stage_payload result: the message crashed while this packet staged.
_ABORTED = object()


class ActiveSwitch(BaseSwitch):
    """An 8-port active I/O switch."""

    def __init__(self, env: Environment, name: str,
                 config: SwitchConfig = SwitchConfig(),
                 active_config: ActiveSwitchConfig = ActiveSwitchConfig()):
        super().__init__(env, name, config)
        self.active_config = active_config
        from ..sim.units import Clock
        self.cpus: List[SwitchCPU] = [
            SwitchCPU(env, cpu_id=i, name=f"{name}-cpu",
                      clock=Clock(active_config.cpu_freq_hz))
            for i in range(active_config.num_cpus)
        ]
        self._atbs: Dict[int, AddressTranslationBuffer] = {
            cpu.cpu_id: AddressTranslationBuffer() for cpu in self.cpus
        }
        self.buffers = DataBufferPool(env, count=active_config.num_buffers)
        self.jump_table = JumpTable()
        self.scheduler = CpuScheduler(env, self.cpus)
        self.send_unit = SendUnit(self)
        #: Embedded-kernel state (pre-allocated handler data; see
        #: HandlerContext.kernel_state).
        self.kernel_state: Dict[str, object] = {}
        self._msg_cpu: Dict[int, SwitchCPU] = {}
        self._mapping_waiters: Dict[Tuple[int, int], list] = {}
        # --- fault-injection / graceful-degradation state -------------
        self.degradation = DegradationStats()
        self._injector = None
        self._flush_hooks: Dict[int, Callable] = {}
        self._handler_health: Dict[int, int] = {}
        #: handler_id -> simulation time it was quarantined.
        self._quarantined: Dict[int, int] = {}
        #: Degraded time of quarantines already lifted.
        self._lifted_degraded_ps = 0
        self._invocations: Dict[int, int] = {}
        #: message_id -> fallback destination for surviving continuations.
        self._fallback_ids: Dict[int, str] = {}
        #: message_ids whose handler invocation crashed mid-stream.
        self._aborted: Set[int] = set()
        #: message_ids whose last packet has been delivered (tracked only
        #: under fault injection, for crash-recovery reassembly).
        self._completed: Set[int] = set()

    # ------------------------------------------------------------------
    # Handler registration (done by the embedded kernel at boot)
    # ------------------------------------------------------------------
    def register_handler(self, handler_id: int, handler: Callable,
                         replace: bool = False) -> None:
        """Install ``handler(ctx)`` in the jump table.

        A replacing install (a collective's retry epoch) lifts the
        handler's quarantine: the fresh handler gets messages again.
        Its crash count carries over, so one more crash quarantines it
        anew.
        """
        self.jump_table.register(handler_id, handler, replace=replace)
        since = self._quarantined.pop(handler_id, None) if replace else None
        if since is not None:
            self._lifted_degraded_ps += self.env.now - since

    def register_flush(self, handler_id: int, flush: Callable) -> None:
        """Install a trusted drain hook run if ``handler_id`` is quarantined.

        ``flush(ctx)`` is a generator like a handler; it runs on the
        crashing CPU, FIFO behind any invocations queued before the
        quarantine, and typically emits the handler's partial state to
        the fallback destination so host-side code can finish the job.
        """
        self._flush_hooks[handler_id] = flush

    # ------------------------------------------------------------------
    # Fault injection and graceful degradation
    # ------------------------------------------------------------------
    def attach_faults(self, injector) -> None:
        """Subject this switch to ``injector``'s fault plan.

        Also arms crash containment: a dying handler invocation is
        unwound (ATB entries, data buffers, its message's raw payload
        forwarded to the fallback destination) instead of killing the
        dispatch worker.  Without an attached injector, handler
        exceptions propagate exactly as before.
        """
        self._injector = injector
        self.scheduler.set_crash_handler(self._contain_crash)
        self.env.add_context_provider(self._degradation_context)

    def _degradation_context(self) -> dict:
        return {f"switch:{self.name}": (
            f"quarantined={sorted(self._quarantined)}, "
            f"{self.degradation.contained_crashes} contained crashes, "
            f"{self.degradation.fallback_messages} fallback messages")}

    def quarantined(self, handler_id: int) -> bool:
        return handler_id in self._quarantined

    def degraded_time_ps(self) -> int:
        """Total handler-time spent degraded (sum over quarantined
        handlers of time since each was quarantined, plus the spans of
        quarantines already lifted)."""
        now = self.env.now
        return self._lifted_degraded_ps + sum(
            now - since for since in self._quarantined.values())

    # ------------------------------------------------------------------
    # ATB plumbing
    # ------------------------------------------------------------------
    def atb_for(self, cpu: SwitchCPU) -> AddressTranslationBuffer:
        """The ATB belonging to ``cpu``."""
        return self._atbs[cpu.cpu_id]

    def wait_mapping(self, address: int, cpu: SwitchCPU):
        """Block until ``address`` gets mapped into ``cpu``'s ATB."""
        atb = self.atb_for(cpu)
        if atb.is_mapped(address):
            return
            yield  # pragma: no cover
        base = address - address % MTU
        event = self.env.event()
        self._mapping_waiters.setdefault((cpu.cpu_id, base), []).append(event)
        yield event

    def _wait_mappable(self, cpu: SwitchCPU, address: int):
        """Stall until ``address``'s direct-mapped ATB entry is free."""
        atb = self.atb_for(cpu)
        while not atb.can_map(address):
            freed = self.env.event()
            atb.on_release(lambda e=freed: e.succeed()
                           if not e.triggered else None)
            yield freed

    def _map_buffer_blocking(self, cpu: SwitchCPU, address: int, buffer):
        """Map a region, stalling (backpressure) on direct-mapped
        conflicts until the aliasing entry is deallocated.

        Callers that also claim a data buffer must wait via
        :meth:`_wait_mappable` *before* allocating it (deadlock
        discipline); by then this map is normally immediate, but the
        loop covers the race where another stream takes the entry in
        between.
        """
        yield from self._wait_mappable(cpu, address)
        self.atb_for(cpu).map(address, buffer)
        base = address - address % MTU
        for event in self._mapping_waiters.pop((cpu.cpu_id, base), []):
            event.succeed()

    # ------------------------------------------------------------------
    # Degradation machinery
    # ------------------------------------------------------------------
    def _fallback_forward(self, packet: Packet, first: bool):
        """Degrade to normal switching: forward ``packet`` unprocessed.

        The packet re-enters the conventional cut-through path toward
        the active header's ``fallback_dst`` — the host-side code that
        can compute the result itself, slower but never wrong.  A
        message that names no fallback destination (a collective's
        contribution) has nowhere to go: it is counted and dropped,
        continuations included, and the collective's deadline retries
        the epoch.
        """
        dst = packet.active.fallback_dst if packet.active is not None else None
        if dst is None:
            dst = self._fallback_ids.get(packet.message_id)
        if dst is None:
            self.degradation.dropped_messages += 1
            self._aborted.add(packet.message_id)
            return
        if first:
            self.degradation.fallback_messages += 1
            if not packet.last:
                self._fallback_ids[packet.message_id] = dst
        self.degradation.fallback_packets += 1
        if packet.last:
            self._fallback_ids.pop(packet.message_id, None)
        forwarded = replace(packet, dst=dst, active=None, notify=None,
                            corrupted=False, nack=None)
        yield from self.inject(forwarded)

    def _crash_wrapper(self, generator):
        """Run a handler up to its first suspension point, then die —
        the injected crash lands mid-flight, with the invocation's
        stream buffers mapped and nothing committed yet."""
        try:
            first = next(generator)
        except StopIteration:
            raise HandlerCrashError(
                "injected crash (handler had no suspension point)") from None
        yield first
        generator.close()
        raise HandlerCrashError("injected crash at first suspension point")

    def _contain_crash(self, exc, meta, cpu) -> bool:
        """Crash handler installed in the scheduler: unwind one dead
        invocation.  Returns False (propagate) for invocations without
        metadata — e.g. trusted flush hooks."""
        if meta is None:
            return False
        handler_id = meta["handler_id"]
        message: Message = meta["message"]
        message_id = meta["message_id"]
        self.degradation.contained_crashes += 1
        trace = self.env.trace
        if trace is not None:
            trace.instant(self.name, "switch.crash", self.env.now,
                          handler_id=handler_id, cpu=cpu.cpu_id,
                          error=type(exc).__name__)
        # Reclaim the crashed message's stream state: unmap its address
        # range, free the buffers (a still-running fill is stopped by
        # the buffer's generation check on reset).
        address = meta["address"]
        end = address + max(message.size_bytes, 1)
        for buffer in self.atb_for(cpu).release_range(address, end):
            self.buffers.release(buffer)
        self._msg_cpu.pop(message_id, None)
        self._aborted.add(message_id)
        completed = message_id in self._completed
        self._completed.discard(message_id)
        fallback = meta["fallback_dst"]
        if fallback is not None:
            # The message's data must still reach the host: its raw
            # first chunk (carrying the functional payload) re-emerges
            # toward the fallback destination, and any continuation
            # packets still in flight are forwarded as they arrive,
            # reassembling under the same message id.
            self.degradation.fallback_messages += 1
            if not completed:
                self._fallback_ids[message_id] = fallback
            self.env.process(
                self._resend_raw(message, fallback, message_id,
                                 last=(completed or message.num_packets == 1)),
                name=f"{self.name}-degrade-resend")
        health = self._handler_health.get(handler_id, 0) + 1
        self._handler_health[handler_id] = health
        threshold = self._injector.plan.handler.quarantine_threshold
        if health >= threshold and handler_id not in self._quarantined:
            self._quarantine(handler_id, cpu)
        return True

    def _resend_raw(self, message: Message, fallback: str, message_id: int,
                    last: bool):
        chunk = min(message.size_bytes, MTU)
        packet = Packet(src=message.src, dst=fallback, payload_bytes=chunk,
                        active=None, payload=message.payload,
                        message_id=message_id, seq=0, last=last,
                        message_bytes=message.size_bytes)
        self.degradation.fallback_packets += 1
        yield from self.inject(packet)

    def _quarantine(self, handler_id: int, cpu: SwitchCPU) -> None:
        """Take a repeatedly crashing handler out of service.

        From now on its messages bypass the dispatch unit entirely and
        fall back to normal cut-through forwarding.  The handler's
        registered flush hook (trusted embedded-kernel code) runs on the
        same CPU, FIFO behind already-queued pre-quarantine invocations,
        to drain whatever partial state the handler had accumulated.
        """
        self._quarantined[handler_id] = self.env.now
        self.degradation.quarantined_handlers += 1
        trace = self.env.trace
        if trace is not None:
            trace.instant(self.name, "switch.quarantine", self.env.now,
                          handler_id=handler_id,
                          crashes=self._handler_health[handler_id])
        flush = self._flush_hooks.get(handler_id)
        if flush is not None:
            message = Message(src=self.name, dst=self.name, size_bytes=0)

            def make_flush(chosen_cpu, _flush=flush, _message=message):
                return _flush(HandlerContext(self, chosen_cpu, _message))

            self.scheduler.dispatch_on(cpu, make_flush)

    # ------------------------------------------------------------------
    # Active datapath
    # ------------------------------------------------------------------
    def crossbar_transfer_ps(self, nbytes: int) -> int:
        """Time to move ``nbytes`` across the crossbar."""
        return transfer_ps(nbytes, self.active_config.crossbar_bandwidth_bytes_per_s)

    def deliver_local(self, packet: Packet, in_port: int):
        """Accept an active message: buffer the payload, dispatch the
        handler (first packet) or extend the mapped stream (later
        packets)."""
        self.stats.delivered_local += 1
        if packet.active is None:
            raise DispatchError(
                f"{self.name}: packet addressed to switch has no active header")

        # Deadlock discipline: never hold a data buffer while stalled on
        # an ATB conflict — wait for the entry first, then claim the
        # buffer (otherwise two multi-region streams can each hold part
        # of the pool while waiting for the other's entries).
        def stage_payload(cpu, address):
            if packet.payload_bytes <= 0:
                return None
                yield  # pragma: no cover
            atb = self.atb_for(cpu)
            while True:
                if packet.message_id in self._aborted:
                    return _ABORTED
                yield from self._wait_mappable(cpu, address)
                buffer = yield from self.buffers.allocate()
                if packet.message_id in self._aborted:
                    # The handler crashed while we waited: nothing left
                    # to stage into.
                    self.buffers.release(buffer)
                    return _ABORTED
                if atb.can_map(address):
                    break
                # Lost the entry while waiting for a buffer: never hold
                # a buffer while stalled on the ATB, or two multi-region
                # streams can deadlock the pool.
                self.buffers.release(buffer)
            buffer.payload = packet.payload
            self.env.process(
                buffer.fill(packet.payload_bytes,
                            self.active_config.crossbar_bandwidth_bytes_per_s),
                name=f"{self.name}-fill")
            yield from self._map_buffer_blocking(cpu, address, buffer)
            if packet.message_id in self._aborted:
                # Crash landed during the map: undo it before the dead
                # mapping leaks the buffer.
                for stale in atb.release_range(address, address + 1):
                    self.buffers.release(stale)
                return _ABORTED
            return buffer

        if packet.seq == 0:
            handler_id = packet.active.handler_id
            crash_this = False
            meta = None
            if self._injector is not None:
                if handler_id in self._quarantined:
                    yield from self._fallback_forward(packet, first=True)
                    return
                plan = self._injector.plan.handler
                if (plan.atb_corruption_rate > 0
                        and self._injector.atb_corruption(self.name)):
                    # The dispatch unit read a parity-corrupted ATB
                    # entry: the mapping cannot be trusted, so the
                    # message is delivered unprocessed.  Counted apart
                    # from crashes — it is the ATB's fault, not the
                    # handler's, so it never feeds quarantine.
                    self.degradation.atb_corruptions += 1
                    yield from self._fallback_forward(packet, first=True)
                    return
                if plan.enabled:
                    invocation = self._invocations.get(handler_id, 0)
                    self._invocations[handler_id] = invocation + 1
                    crash_this = self._injector.handler_crash(
                        self.name, handler_id, invocation)
            # Header to the dispatch unit, in parallel with the copy.
            cpu = self.scheduler.pick(packet.active.cpu_id)
            trace = self.env.trace
            if trace is not None:
                trace.instant(self.name, "switch.dispatch", self.env.now,
                              handler_id=handler_id, cpu=cpu.cpu_id,
                              src=packet.src, msg=packet.message_id)
            self._msg_cpu[packet.message_id] = cpu
            yield from stage_payload(cpu, packet.active.address)
            total = (packet.message_bytes if packet.message_bytes is not None
                     else packet.payload_bytes)
            message = Message(src=packet.src, dst=packet.dst,
                              size_bytes=total,
                              active=packet.active, payload=packet.payload)
            handler = self.jump_table.lookup(handler_id)
            # Built unconditionally: the crash handler (when armed) and
            # the dispatch unit's handler-span attribution both read it.
            meta = {"handler_id": handler_id,
                    "message": message,
                    "message_id": packet.message_id,
                    "address": packet.active.address,
                    "fallback_dst": packet.active.fallback_dst}

            def make_generator(chosen_cpu, _message=message,
                               _handler=handler, _crash=crash_this):
                context = HandlerContext(self, chosen_cpu, _message)
                generator = _handler(context)
                return self._crash_wrapper(generator) if _crash else generator

            self.scheduler.dispatch_on(cpu, make_generator, meta=meta)
        else:
            if packet.message_id in self._fallback_ids:
                yield from self._fallback_forward(packet, first=False)
                return
            cpu = self._msg_cpu.get(packet.message_id)
            if cpu is None:
                if packet.message_id in self._aborted:
                    # Crashed message with no fallback route: the
                    # remaining continuations have nowhere to go.
                    return
                raise DispatchError(
                    f"{self.name}: continuation packet for unknown message "
                    f"{packet.message_id}")
            staged = yield from stage_payload(
                cpu, packet.active.address + packet.seq * MTU)
            if staged is _ABORTED:
                if packet.message_id in self._fallback_ids:
                    yield from self._fallback_forward(packet, first=False)
                return
        if packet.last:
            self._msg_cpu.pop(packet.message_id, None)
            if self._injector is not None:
                self._completed.add(packet.message_id)

    def __repr__(self) -> str:
        return (f"<ActiveSwitch {self.name}: {len(self.cpus)} CPUs, "
                f"{self.buffers.in_use}/{self.buffers.count} buffers busy>")
