"""System assembly: hosts, switch(es), storage, and the bulk datapath.

:class:`System` builds one SAN cluster from a :class:`ClusterConfig`:
every host and storage node hangs off one central switch (the paper's
Figure 1), wired with real duplex links, with routing tables populated.

Two datapaths coexist:

* the **packet path** — real per-packet simulation through HCAs, links,
  and the (active) switch; used for small messages (reductions, request
  headers) and fully exercised by the integration tests;
* the **block path** — bulk sequential I/O moves in request-sized blocks
  whose intra-block pipelining (cut-through, valid-bit streaming) is
  priced from the same component parameters; used by the streaming
  benchmarks where per-packet simulation of ~250 000 MTUs per run would
  add nothing but wall-clock time (see DESIGN.md section 2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import heapq
from dataclasses import replace

from ..cpu.accounting import charge
from ..net.link import Link
from ..net.packet import HEADER_BYTES, MTU
from ..obs.registry import MetricsRegistry
from ..sim.core import Environment
from ..sim.units import transfer_ps
from ..switch.active import ActiveSwitch
from ..switch.base import BaseSwitch
from .config import ClusterConfig
from .node import ComputeNode, StorageNode


def fault_counters(links: Iterable[Link],
                   switches: Iterable[BaseSwitch]) -> Dict[str, float]:
    """Link recovery and active-switch degradation counters, summed.

    One report vocabulary for a :class:`System` (its host and storage
    links, its one switch) and a fabric (every link, every switch).
    Link retransmits, drops and corruptions always appear; counters
    that only fail-stop faults or an unrecoverable degradation move
    appear only when non-zero, so transient-only reports keep their
    key set.  The degradation block appears when some switch is active.
    """
    stats = [link.stats for link in links]
    report = {
        "link_retransmits": float(sum(s.retransmits for s in stats)),
        "link_packets_dropped": float(sum(s.packets_dropped for s in stats)),
        "link_packets_corrupted": float(
            sum(s.packets_corrupted for s in stats)),
    }
    capped = sum(s.capped_backoffs for s in stats)
    abandoned = sum(s.packets_abandoned for s in stats)
    if capped:
        report["link_capped_backoffs"] = float(capped)
    if abandoned:
        report["link_packets_abandoned"] = float(abandoned)
    active = [s for s in switches if isinstance(s, ActiveSwitch)]
    if not active:
        return report
    degradation = [s.degradation for s in active]
    report["handler_contained_crashes"] = float(
        sum(d.contained_crashes for d in degradation))
    report["handler_quarantined"] = float(
        sum(d.quarantined_handlers for d in degradation))
    report["atb_corruptions"] = float(
        sum(d.atb_corruptions for d in degradation))
    report["fallback_messages"] = float(
        sum(d.fallback_messages for d in degradation))
    report["degraded_time_ps"] = float(
        sum(s.degraded_time_ps() for s in active))
    dropped = sum(d.dropped_messages for d in degradation)
    if dropped:
        report["dropped_messages"] = float(dropped)
    return report


class System:
    """One switch-centred SAN cluster."""

    def __init__(self, config: ClusterConfig,
                 env: Optional[Environment] = None):
        self.config = config
        self.env = env if env is not None else Environment()
        needed_ports = config.num_hosts + config.num_storage
        switch_config = config.switch
        if needed_ports > switch_config.num_ports:
            switch_config = replace(switch_config, num_ports=needed_ports)
        if config.active:
            self.switch = ActiveSwitch(self.env, "sw0", switch_config,
                                       config.active_switch)
        else:
            self.switch = BaseSwitch(self.env, "sw0", switch_config)

        #: Deterministic fault scheduler; None on a perfect fabric, in
        #: which case no component ever consults the fault machinery.
        self.injector = None
        if config.faults is not None and config.faults.enabled:
            from ..faults import FaultInjector
            self.injector = FaultInjector(config.faults, seed=config.seed)
            self.env.add_context_provider(self.injector.failure_context)
            if config.active:
                self.switch.attach_faults(self.injector)

        self.hosts: List[ComputeNode] = []
        self.storage_nodes: List[StorageNode] = []
        self._links: Dict[str, tuple] = {}

        port = 0
        for i in range(config.num_hosts):
            node = ComputeNode(self.env, f"host{i}", config)
            self._attach(node.hca, node.name, port)
            self.hosts.append(node)
            port += 1
        for i in range(config.num_storage):
            node = StorageNode(self.env, f"storage{i}", config)
            self._attach(node.tca, node.name, port)
            if self.injector is not None:
                node.attach_faults(self.injector)
            self.storage_nodes.append(node)
            port += 1

        #: Block-level pool of embedded CPUs (active systems only): a
        #: ``(free_at_ps, seq, cpu)`` min-heap, popped/pushed by
        #: :meth:`process_on_switch_at`.  Popping the earliest-free
        #: entry grants CPUs FIFO, earliest-freed first.
        self._cpu_ready = None
        self._cpu_seq = 0
        if config.active:
            self._cpu_ready = [(0, i, cpu)
                               for i, cpu in enumerate(self.switch.cpus)]
            self._cpu_seq = len(self.switch.cpus)

        #: Unified metric namespace over every component's counters;
        #: pull-based, so registration costs nothing at simulation time.
        self.metrics = MetricsRegistry()
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Expose every component's counters as named registry probes."""
        m = self.metrics
        m.register("sim.event_count", lambda: self.env.event_count)
        m.register("sim.now_ps", lambda: self.env.now)
        for to_switch, from_switch in self._links.values():
            for link in (to_switch, from_switch):
                m.register_stats(
                    f"link.{link.name}", link.stats,
                    ["packets_sent", "packets_delivered", "packets_dropped",
                     "packets_corrupted", "retransmits", "bytes_sent",
                     "bytes_delivered"])
                m.register(f"link.{link.name}.utilization", link.utilization)
        for node in self.hosts:
            acct = node.cpu.accounting
            m.register(f"cpu.{node.cpu.name}.busy_ps",
                       lambda a=acct: a.busy_ps)
            m.register(f"cpu.{node.cpu.name}.stall_ps",
                       lambda a=acct: a.stall_ps)
            m.register(f"hca.{node.name}.bytes_in",
                       lambda h=node.hca: h.traffic.bytes_in)
            m.register(f"hca.{node.name}.bytes_out",
                       lambda h=node.hca: h.traffic.bytes_out)
            self._register_hierarchy(f"mem.{node.name}", node.hierarchy)
        for node in self.storage_nodes:
            for disk in node.disks.disks:
                # Through the spindle: its array settles lockstep counters
                # into ``disk.stats`` only when it is read.
                for field in self._DISK_FIELDS:
                    m.register(f"disk.{disk.name}.{field}",
                               lambda d=disk, f=field: getattr(d.stats, f))
                m.register(f"disk.{disk.name}.utilization",
                           disk.utilization)
        if isinstance(self.switch, ActiveSwitch):
            switch = self.switch
            for cpu in switch.cpus:
                m.register(f"cpu.{cpu.name}.busy_ps",
                           lambda a=cpu.accounting: a.busy_ps)
                m.register(f"cpu.{cpu.name}.stall_ps",
                           lambda a=cpu.accounting: a.stall_ps)
            m.register("switch.dispatched",
                       lambda: switch.scheduler.stats.dispatched)
            m.register("switch.queued_waits",
                       lambda: switch.scheduler.stats.queued_waits)
            m.register("switch.send.messages",
                       lambda: switch.send_unit.stats.messages)
            m.register("switch.send.bytes",
                       lambda: switch.send_unit.stats.bytes)
            m.register("switch.buffers.in_use",
                       lambda: switch.buffers.in_use)
            for cpu in switch.cpus:
                self._register_hierarchy(f"mem.{cpu.name}", cpu.hierarchy)

    #: DiskStats fields exposed per spindle.
    _DISK_FIELDS = ["requests", "sequential_requests", "bytes_read",
                    "bytes_written", "positioning_ps", "transfer_ps_total",
                    "transient_errors", "retries"]

    #: CacheStats fields exposed per cache level.
    _CACHE_FIELDS = ["accesses", "hits", "misses", "evictions", "writebacks"]

    def _register_hierarchy(self, prefix: str, hierarchy) -> None:
        """Cache-simulation counters for one CPU's memory hierarchy.

        Every cache level, TLB, and the RDRAM behind one
        :class:`~repro.mem.MemoryHierarchy` lands under ``mem.<cpu>.*``,
        so traces and the golden-equivalence tests read the same names.
        """
        m = self.metrics
        for level in ("l1d", "l1i", "l2"):
            cache = getattr(hierarchy, level)
            if cache is not None:
                m.register_stats(f"{prefix}.{level}", cache.stats,
                                 self._CACHE_FIELDS)
        for level in ("dtlb", "itlb"):
            tlb = getattr(hierarchy, level)
            if tlb is not None:
                m.register_stats(f"{prefix}.{level}", tlb.stats,
                                 ["accesses", "misses"])
        m.register_stats(f"{prefix}.rdram", hierarchy.memory.stats,
                         ["accesses", "page_hits", "page_misses",
                          "bytes_transferred"])
        for bucket in ("load_stall_ps", "store_stall_ps",
                       "ifetch_stall_ps", "tlb_stall_ps"):
            m.register(f"{prefix}.{bucket}",
                       lambda h=hierarchy, b=bucket: getattr(h, b))

    def attach_trace(self, collector) -> None:
        """Attach a ``repro.obs.TraceCollector``: every instrumented
        component starts emitting structured events into it.  Call before
        ``env.run``, which hands the collector the environment on entry
        to sample its event heap."""
        self.env.trace = collector

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _attach(self, adapter, name: str, port: int) -> None:
        to_switch = Link(self.env, f"{name}->sw0", self.config.link)
        from_switch = Link(self.env, f"sw0->{name}", self.config.link)
        if self.injector is not None:
            to_switch.attach_faults(self.injector)
            from_switch.attach_faults(self.injector)
        adapter.attach(tx_link=to_switch, rx_link=from_switch)
        self.switch.connect(port, tx_link=from_switch, rx_link=to_switch)
        self.switch.routing.add(name, port)
        self._links[name] = (to_switch, from_switch)

    @property
    def host(self) -> ComputeNode:
        """The (first) host — convenience for single-host experiments."""
        return self.hosts[0]

    @property
    def storage(self) -> StorageNode:
        """The (first) storage node."""
        return self.storage_nodes[0]

    def links_for(self, name: str):
        """(to_switch, from_switch) link pair of node ``name``."""
        return self._links[name]

    # ------------------------------------------------------------------
    # Reliability reporting
    # ------------------------------------------------------------------
    def reliability_report(self) -> Dict[str, float]:
        """Fault/recovery metrics for the run report.

        Empty on a perfect fabric (the default), so fault-free results
        carry exactly the pre-reliability metrics; under a fault plan it
        aggregates what was injected and what the recovery machinery
        did: retransmits, retries, drops/corruptions, crash containment,
        and time spent in degraded (quarantined-handler) mode.

        Caveat: observability loss is reliability information too.  If a
        capacity-bounded ``env.trace`` collector dropped events,
        ``trace_events_dropped`` reports how many, whether or not faults
        were injected.  A 0 count is omitted, so fault-free untraced runs
        still return ``{}`` and stay bit-identical to the seed.
        """
        report: Dict[str, float] = {}
        trace = self.env.trace
        trace_dropped = trace.dropped if trace is not None else 0
        if trace_dropped:
            report["trace_events_dropped"] = float(trace_dropped)
        if self.injector is None:
            return report
        report.update(fault_counters(
            [link for pair in self._links.values() for link in pair],
            [self.switch]))
        ports_failed = self.switch.stats.ports_failed
        tx_abandoned = self.switch.stats.tx_abandoned
        if ports_failed:
            report["switch_ports_failed"] = float(ports_failed)
        if tx_abandoned:
            report["switch_tx_abandoned"] = float(tx_abandoned)
        report["disk_transient_errors"] = float(
            sum(node.disks.transient_errors for node in self.storage_nodes))
        report["disk_retries"] = float(
            sum(node.disks.retries for node in self.storage_nodes))
        report["scsi_parity_errors"] = float(
            sum(node.scsi.stats.parity_errors for node in self.storage_nodes))
        report["scsi_retries"] = float(
            sum(node.scsi.stats.retries for node in self.storage_nodes))
        report.update(self.injector.snapshot())
        return report

    # ------------------------------------------------------------------
    # Fixed path latencies (block path)
    # ------------------------------------------------------------------
    def request_path_ps(self) -> int:
        """Control-message latency host -> storage (CPU charge excluded)."""
        link = self.config.link
        control_wire = transfer_ps(2 * HEADER_BYTES, link.bandwidth_bytes_per_s)
        return (self.config.hca.per_packet_ps
                + control_wire + link.propagation_ps
                + self.config.switch.routing_latency_ps
                + control_wire + link.propagation_ps)

    def _hop_ps(self, payload: int = MTU) -> int:
        """One MTU through one link + the switch."""
        link = self.config.link
        return (transfer_ps(payload + HEADER_BYTES, link.bandwidth_bytes_per_s)
                + link.propagation_ps
                + self.config.switch.routing_latency_ps)

    def first_data_tail_ps(self, to_switch: bool) -> int:
        """Storage-to-destination latency of the stream's first MTU."""
        disk_mtu = transfer_ps(MTU, self.storage.disks.aggregate_bandwidth)
        scsi_mtu = self.storage.scsi.occupancy_ps(MTU)
        tail = disk_mtu + scsi_mtu + self.config.tca.per_packet_ps + self._hop_ps()
        if not to_switch:
            link = self.config.link
            tail += (transfer_ps(MTU + HEADER_BYTES, link.bandwidth_bytes_per_s)
                     + link.propagation_ps + self.config.hca.per_packet_ps)
        return tail

    def last_data_tail_ps(self, to_switch: bool) -> int:
        """Latency from last byte off the platter to last byte at dest."""
        scsi_mtu = self.storage.scsi.occupancy_ps(MTU)
        tail = scsi_mtu + self.config.tca.per_packet_ps + self._hop_ps()
        if not to_switch:
            link = self.config.link
            tail += (transfer_ps(MTU + HEADER_BYTES, link.bandwidth_bytes_per_s)
                     + link.propagation_ps + self.config.hca.per_packet_ps)
        return tail

    # ------------------------------------------------------------------
    # Bulk movement helpers
    # ------------------------------------------------------------------
    def switch_to_host_bulk(self, host: ComputeNode, nbytes: int):
        """Handler output streaming from the switch into host memory:
        :meth:`switch_to_host_bulk_at` now, then sleep to the release."""
        now = self.env.now
        end = self.switch_to_host_bulk_at(host, nbytes, now)
        if end > now:
            yield self.env.timeout(end - now)

    def switch_to_host_bulk_at(self, host: ComputeNode, nbytes: int,
                               ready_ps: int) -> int:
        """Reserve the host's downlink for ``nbytes`` from ``ready_ps``
        and account the bytes as host I/O traffic; returns the release
        time."""
        if nbytes <= 0:
            return ready_ps
        _, from_switch = self._links[host.name]
        end = self._reserve_wires((from_switch,), ready_ps,
                                  from_switch.occupancy_ps(nbytes))
        host.hca.account_bulk_in(nbytes)
        return end

    def host_to_host_bulk(self, src: ComputeNode, dst: ComputeNode,
                          nbytes: int):
        """Bulk memory-to-memory transfer between two hosts.

        Cut-through: the uplink of ``src`` and downlink of ``dst`` are
        held simultaneously for the wire occupancy.
        """
        if nbytes <= 0:
            return
        to_switch, _ = self._links[src.name]
        _, from_switch = self._links[dst.name]
        hold_ps = (to_switch.occupancy_ps(nbytes)
                   + self.config.switch.routing_latency_ps)
        now = self.env.now
        end = self._reserve_wires((to_switch, from_switch), now, hold_ps)
        src.hca.account_bulk_out(nbytes)
        dst.hca.account_bulk_in(nbytes)
        yield self.env.timeout(end - now)

    def switch_to_remote_bulk(self, dst_name: str, nbytes: int):
        """Handler output streamed to an arbitrary node (Tar's archive).

        Only the destination's downlink is held; the source is the
        switch's own data buffers.
        """
        if nbytes <= 0:
            return
        _, from_switch = self._links[dst_name]
        now = self.env.now
        end = self._reserve_wires((from_switch,), now,
                                  from_switch.occupancy_ps(nbytes))
        yield self.env.timeout(end - now)

    @staticmethod
    def _reserve_wires(links, ready_ps: int, hold_ps: int):
        """Bulk wire arbitration: reserve ``links`` jointly for
        ``hold_ps`` from the later of ``ready_ps`` and their common free
        time; returns the release time.

        Callers arrive in nondecreasing ``ready_ps`` order, so the
        scalar free-at state grants FIFO.  Bulk holds never touch
        ``link.busy``: link utilization is a packet-path figure.

        The bulk generators reserve at ``env.now`` and sleep straight to
        the release, so two holds that release in the same picosecond
        complete in call order — also when a later caller was granted
        at once and an earlier one had to wait.
        """
        start = ready_ps
        for link in links:
            if link.bulk_free_ps > start:
                start = link.bulk_free_ps
        end = start + hold_ps
        for link in links:
            link.bulk_free_ps = end
        return end

    # ------------------------------------------------------------------
    # Block-level handler execution
    # ------------------------------------------------------------------
    def switch_cpu_peek_at(self, now_ps: int):
        """The CPU a :meth:`process_on_switch_at` call at ``now_ps``
        would grant: the earliest-free pool entry if it is free by
        then, else cpu 0.

        Apps pre-evaluate a block's handler cache stalls on the CPU
        that will run it; the open-loop service worker does so before
        it has advanced the clock to the dispatch time.
        """
        if self._cpu_ready is None:
            raise RuntimeError("switch_cpu_peek_at requires an active system")
        ready_ps, _, cpu = self._cpu_ready[0]
        return cpu if ready_ps <= now_ps else self.switch.cpus[0]

    def process_on_switch(self, cycles: float, stall_ps: int,
                          arrival_end_ps=None):
        """Run one block's worth of handler work on a free switch CPU:
        :meth:`process_on_switch_at` now, then sleep to its completion."""
        now = self.env.now
        done = self.process_on_switch_at(now, cycles, stall_ps,
                                         arrival_end_ps)
        if done > now:
            yield self.env.timeout(done - now)

    def process_on_switch_at(self, ready_ps: int, cycles: float,
                             stall_ps: int, arrival_end_ps=None) -> int:
        """Price one block's handler work on the switch-CPU pool;
        returns the completion time.

        The handler computes while the block streams in (valid-bit
        overlap): completion is ``max(compute done, arrival done)``,
        where ``arrival_end_ps`` is when the block's last byte lands
        (from :class:`~repro.cluster.BlockArrival`; ``None`` when the
        data is already in).  Waiting for data beyond the compute time
        is charged as switch CPU stall (stalled on invalid buffer
        lines).  With ``cut_through=False`` (the store-and-forward
        ablation) the handler may not start until the whole block is
        in.

        Pops the earliest-free CPU — the pool's FIFO: callers are
        assigned CPUs in call order, earliest-freed first.  Callers
        must issue in nondecreasing ``ready_ps`` order: DES callers
        price at ``env.now``, and the service pipeline's post/storage
        stages are FIFO, so its dispatch order is completion order.
        """
        if self._cpu_ready is None:
            raise RuntimeError("process_on_switch requires an active system")
        free_ps, _, cpu = heapq.heappop(self._cpu_ready)
        acct = cpu.accounting
        t = ready_ps if ready_ps > free_ps else free_ps
        if not self.config.cut_through and arrival_end_ps is not None \
                and arrival_end_ps > t:
            acct.add_stall(arrival_end_ps - t)
            t = arrival_end_ps
        t = charge(cpu, t, cpu.clock.cycles(cycles), stall_ps)
        if arrival_end_ps is not None and arrival_end_ps > t:
            acct.add_stall(arrival_end_ps - t)
            t = arrival_end_ps
        self._cpu_seq += 1
        heapq.heappush(self._cpu_ready, (t, self._cpu_seq, cpu))
        return t

    def __repr__(self) -> str:
        return (f"<System {self.config.case_label}: {len(self.hosts)} hosts, "
                f"{len(self.storage_nodes)} storage, "
                f"switch={'active' if self.config.active else 'base'}>")
