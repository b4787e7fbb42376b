"""Collective reductions: ``repro.run("reduce", ...)`` (paper Section 5,
Figures 15/16 and Table 2, and the scale-out fabrics).

Every host contributes one vector; the collective combines them with
an associative operation (addition mod 2^32).  ``mode`` picks where the
result goes, the paper's Table 2 semantics:

* **Reduce-to-one** — the whole result lands on host 0;
* **Distributed Reduce** — host i gets the i-th slice of the result;
* **Reduce-to-all** — every host gets the whole result.

:class:`FabricReduceApp` maps the harness's four configurations onto
one collective over a declarative fabric (``TopologySpec``):

normal / normal+pref
    Host-only software reduction — the minimum-spanning-tree (binomial)
    baseline, ``ceil(log2 p)`` rounds of (send, poll, add) between
    hosts, running *over the same fabric* (messages really transit the
    switches).  Distributed Reduce on a power-of-two host count is a
    recursive-halving reduce-scatter instead.  Prefetch has no meaning
    for a collective; both labels run the identical baseline.
active / active+pref
    In-network aggregation with the requested handler ``placement``
    (``root_only``, ``leaf_combine``, ``per_level``) installed by the
    placement engine (:mod:`repro.cluster.placement`) on the fabric's
    active switches: hosts fire their vectors at their entry switches
    as active messages, handlers fold and forward partials up the
    tree, and the finalize switch delivers per ``mode``.

Both are fully simulated at packet level with the vectors really added,
and every run checks the hosts' result against the oracle — so the
active result is bit-identical to the host-only one.

Cost model: vector add at 3 cycles/word on the host (load-load-add-
store on the single-issue core, some ILP) and 2 cycles/word on the
switch (``placement.SWITCH_ADD_CYCLES_PER_WORD``).  The hosts' messaging
software (an MPI-style reduction library over the queue-pair interface,
with polling receives) costs ~10 us per posted send and ~18 us per
polled receive — this is the alpha that dominates the MST baseline and
that the paper's switch-side reduction eliminates.

Examples::

    repro.run("reduce", topology="fat_tree", hosts=64,
              placement="per_level")
    repro.run("reduce", hosts=128, mode="distributed",
              cases=("normal", "active"))

Fault plans flow through unchanged: a config with ``faults`` enabled
builds the fabric with a :class:`~repro.faults.FaultInjector` attached
to every link and switch, and the result's ``extra`` reports what was
injected and how the links and switches recovered.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional

from ..cluster.config import ClusterConfig
from ..cluster.fabric import Fabric, TopologySpec, build_fabric
from ..cluster.placement import (DISTRIBUTED, PLACEMENT_POLICIES,
                                 REDUCE_TO_ALL, REDUCE_TO_ONE,
                                 REDUCTION_MODES, plan_placement,
                                 run_placed_reduction)
from ..cluster.system import fault_counters
from ..metrics.results import CaseResult
from ..net.hca import HcaConfig
from ..obs.registry import MetricsRegistry
from ..runner.api import run_many
from ..runner.spec import make_spec
from ..sim.core import Environment
from ..sim.units import us

#: Paper vector size.
VECTOR_BYTES = 512

#: Host-side costs.
HOST_ADD_CYCLES_PER_WORD = 3

#: The MST implementation's messaging software overheads (per message).
REDUCTION_HCA = HcaConfig(send_overhead_ps=us(10), recv_poll_ps=us(18),
                          per_packet_ps=us(0.1))


def _oracle(vectors: List[List[int]]) -> List[int]:
    return [sum(column) & 0xFFFFFFFF for column in zip(*vectors)]


def _make_vectors(num_hosts: int, seed: int = 3,
                  vector_bytes: int = VECTOR_BYTES) -> List[List[int]]:
    """Each host's words, as ``random.Random(seed).randrange(1 << 16)``
    draws them: that call takes ``getrandbits(17)`` and draws again
    while the result is at least ``1 << 16``.  The loop is inlined
    because a 1024-host set is hundreds of thousands of words."""
    draw = random.Random(seed).getrandbits
    words = vector_bytes // 4
    vectors = []
    for _ in range(num_hosts):
        vector = []
        append = vector.append
        for _ in range(words):
            word = draw(17)
            while word >= 1 << 16:
                word = draw(17)
            append(word)
        vectors.append(vector)
    return vectors


# ----------------------------------------------------------------------
# Normal: binomial (MST) software reduction between hosts
# ----------------------------------------------------------------------
def _mst_rounds(num_hosts: int) -> int:
    rounds = 0
    while (1 << rounds) < num_hosts:
        rounds += 1
    return rounds


def run_normal_reduction(fabric: Fabric, vectors: List[List[int]],
                         mode: str = REDUCE_TO_ONE) -> Dict:
    """Binomial reduce (plus scatter/broadcast for the other modes).

    Returns ``{"result": [...], "latency_ps": ...}`` like
    :func:`~repro.cluster.placement.run_placed_reduction`: ``result``
    is host 0's vector, or — for a reduce-scatter — every host's kept
    slice concatenated in host order.
    """
    env = fabric.env
    hosts = fabric.hosts
    p = len(hosts)
    rounds = _mst_rounds(p)
    local = [list(v) for v in vectors]
    words = len(vectors[0])
    vector_bytes = words * 4
    scatter = mode == DISTRIBUTED and p & (p - 1) == 0 and p > 1
    kept = [(0, words)] * p

    def add_into(host, mine: List[int], incoming: List[int], lo: int,
                 hi: int):
        stall = 0
        for w in range(lo, hi):
            mine[w] = (mine[w] + incoming[w - lo]) & 0xFFFFFFFF
            if w % 8 == 0:  # one L2 line of the arriving vector
                stall += host.hierarchy.load(0x3000_0000 + w * 4)
        yield from host.cpu.work((hi - lo) * HOST_ADD_CYCLES_PER_WORD, stall)

    def host_proc_reduce_to_one(i: int):
        host = hosts[i]
        # Binomial tree toward host 0.
        for k in range(rounds):
            step = 1 << k
            if i % (2 * step) == step:
                yield from host.hca.send(hosts[i - step].name, vector_bytes,
                                         payload=list(local[i]))
                break
            if i % (2 * step) == 0 and i + step < p:
                message = yield from host.hca.poll_receive()
                yield from add_into(host, local[i], message.payload, 0, words)
        if mode == REDUCE_TO_ALL:
            # Binomial broadcast back down.
            for k in reversed(range(rounds)):
                step = 1 << k
                if i % (2 * step) == 0 and i + step < p:
                    yield from host.hca.send(hosts[i + step].name,
                                             vector_bytes,
                                             payload=list(local[i]))
                elif i % (2 * step) == step:
                    message = yield from host.hca.poll_receive()
                    local[i][:] = message.payload

    def host_proc_reduce_scatter(i: int):
        # Recursive halving: after round k each host holds a reduced
        # half of half...; after log2(p) rounds host i holds slice i.
        # This is the standard distributed-reduce algorithm — its cost
        # is essentially one binomial reduction (the paper's normal
        # distributed case tracks its reduce-to-one closely).
        host = hosts[i]
        lo, hi = 0, words
        for k in reversed(range(rounds)):
            step = 1 << k
            partner = i ^ step
            mid = (lo + hi) // 2
            keep_low = (i & step) == 0
            send_lo, send_hi = (mid, hi) if keep_low else (lo, mid)
            keep_lo, keep_hi = (lo, mid) if keep_low else (mid, hi)
            nbytes = max(4, (send_hi - send_lo) * 4)
            yield from host.hca.send(hosts[partner].name, nbytes,
                                     payload=local[i][send_lo:send_hi])
            message = yield from host.hca.poll_receive()
            yield from add_into(host, local[i], message.payload,
                                keep_lo, keep_hi)
            lo, hi = keep_lo, keep_hi
        kept[i] = (lo, hi)

    host_proc = host_proc_reduce_scatter if scatter \
        else host_proc_reduce_to_one
    procs = [env.process(host_proc(i), name=f"mst-{i}") for i in range(p)]
    env.run(until=env.all_of(procs))
    result = ([word for i, (lo, hi) in enumerate(kept)
               for word in local[i][lo:hi]] if scatter else local[0])
    return {"result": result, "latency_ps": env.now}


# ----------------------------------------------------------------------
# The one reduction driver
# ----------------------------------------------------------------------
class FabricReduceApp:
    """One collective over a multi-stage fabric, placement-parameterized.

    Not a :class:`~repro.apps.StreamApp` — there is no disk stream; the
    app owns its whole ``run_case`` and builds the fabric itself.  The
    constructor parameters are all hashable, so specs fingerprint and
    cache like any other registered application.
    """

    name = "reduce"

    def __init__(self, topology: str = "tree", hosts: int = 64,
                 placement: str = "per_level", hosts_per_leaf: int = 8,
                 switch_ports: int = 16, vector_bytes: int = VECTOR_BYTES,
                 radix: Optional[int] = None, spines: Optional[int] = None,
                 oversubscription: float = 2.0, data_seed: int = 3,
                 mode: str = REDUCE_TO_ONE):
        if placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement {placement!r}; "
                f"expected one of {PLACEMENT_POLICIES}")
        if mode not in REDUCTION_MODES:
            raise ValueError(f"unknown reduction mode {mode!r}; "
                             f"expected one of {REDUCTION_MODES}")
        if vector_bytes < 4 or vector_bytes % 4:
            raise ValueError("vector_bytes must be a positive multiple of 4")
        self.placement = placement
        self.mode = mode
        self.vector_bytes = vector_bytes
        self.data_seed = data_seed
        # Constructing the spec validates the shape parameters eagerly,
        # so a bad grid point fails at spec time, not mid-simulation.
        self.spec = TopologySpec(
            kind=topology, num_hosts=hosts, hosts_per_leaf=hosts_per_leaf,
            switch_ports=switch_ports, radix=radix, spines=spines,
            oversubscription=oversubscription)
        self._audited = False  # validate() reads only the spec: once

    # ------------------------------------------------------------------
    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(num_hosts=self.spec.num_hosts,
                             hca=REDUCTION_HCA)

    # ------------------------------------------------------------------
    def run_case(self, config: ClusterConfig, trace=None,
                 metrics_sink: Optional[dict] = None) -> CaseResult:
        env = Environment()
        if trace is not None:
            env.trace = trace
        env.add_context(app=self.name, config=config.case_label)

        injector = None
        if config.faults is not None and config.faults.enabled:
            from ..faults import FaultInjector
            from ..faults.plan import FailStopFaults
            plan = config.faults
            if not config.active and plan.failstop.enabled:
                # The MST baseline has no end-to-end recovery: a switch
                # killed mid-round would deadlock a receiver forever.
                # The normal cases therefore measure the failure-free
                # baseline (transient faults still apply), which is the
                # reference the availability comparison needs anyway.
                plan = replace(plan, failstop=FailStopFaults())
            injector = FaultInjector(plan, seed=config.seed)
            env.add_context_provider(injector.failure_context)

        fabric = build_fabric(env, self.spec, cluster_config=config,
                              hca_config=config.hca, injector=injector)
        if not self._audited:
            fabric.validate()
            self._audited = True
        vectors = _make_vectors(self.spec.num_hosts, seed=self.data_seed,
                                vector_bytes=self.vector_bytes)
        metrics = MetricsRegistry()
        metrics.register("sim.event_count", lambda: env.event_count)
        metrics.register("sim.now_ps", lambda: env.now)
        if fabric.failstop_armed:
            fabric.register_metrics(metrics)

        extra: Dict[str, float] = {}
        switch_breakdowns = []
        if config.active:
            plan = plan_placement(fabric, self.placement)
            done = run_placed_reduction(fabric, plan, vectors,
                                        metrics=metrics, mode=self.mode)
            extra["placement_instances"] = float(plan.instances)
            if "attempts" in done:
                extra["collective_attempts"] = float(done["attempts"])
                extra["collective_repairs"] = float(done["repairs"])
            extra.update(metrics.snapshot("fabric"))
            placed = set(plan.placements)
            switch_breakdowns = [
                cpu.accounting.finalize(env.now)
                for node in fabric.switches if node.name in placed
                for cpu in node.switch.cpus]
        else:
            done = run_normal_reduction(fabric, vectors, self.mode)
        if done["result"] != _oracle(vectors):
            raise AssertionError(
                f"{self.mode} ({config.case_label}, {self.spec.kind}, "
                f"p={self.spec.num_hosts}, {self.placement}): result "
                f"does not match the oracle")

        exec_ps = env.now
        extra["fabric_depth"] = float(fabric.depth)
        extra["fabric_switches"] = float(len(fabric.switches))
        if injector is not None:
            extra.update(fault_counters(
                fabric.links.values(),
                [node.switch for node in fabric.switches]))
            if fabric.failstop_armed:
                extra["failstop_switch_kills"] = float(fabric.ft.switch_kills)
                extra["failstop_link_kills"] = float(fabric.ft.link_kills)
                for name, value in metrics.snapshot("fabric").items():
                    extra.setdefault(name, value)
            extra.update(injector.snapshot())
        if metrics_sink is not None:
            metrics_sink.update(metrics.snapshot())

        host = fabric.hosts[0]
        return CaseResult(
            label=config.case_label,
            exec_ps=exec_ps,
            host=host.cpu.accounting.finalize(exec_ps),
            switch_cpus=switch_breakdowns,
            host_bytes_in=host.hca.traffic.bytes_in,
            host_bytes_out=host.hca.traffic.bytes_out,
            extra=extra,
        )


# ----------------------------------------------------------------------
# Sweeps (Figures 15/16 and the vector-size extension)
# ----------------------------------------------------------------------
def reduce_speedups(points) -> List[Dict[str, float]]:
    """Normal vs active latency of ``repro.run("reduce", **point)`` for
    every point (``repro.run`` keywords), simulated as one batch."""
    results = run_many([make_spec("reduce", **point) for point in points],
                       cases=("normal", "active"))
    rows = []
    for result in results:
        normal = result.cases["normal"].exec_ps
        active = result.cases["active"].exec_ps
        rows.append({"normal_us": normal / 1e6, "active_us": active / 1e6,
                     "speedup": normal / active})
    return rows


def reduction_sweep(mode: str, node_counts=(2, 4, 8, 16, 32, 64, 128),
                    vector_bytes: int = VECTOR_BYTES):
    """Latency and speedup vs node count — one figure's data series."""
    rows = reduce_speedups(dict(hosts=p, mode=mode, vector_bytes=vector_bytes)
                           for p in node_counts)
    return [{"nodes": p, **row} for p, row in zip(node_counts, rows)]


def vector_size_sweep(mode: str = REDUCE_TO_ONE, num_hosts: int = 64,
                      sizes=(128, 512, 2048, 8192)):
    """Speedup vs vector size (extension of Figures 15/16).

    The paper's lower-bound argument holds "for small vectors", where
    the per-round software overhead alpha dominates.  As vectors grow,
    bandwidth terms take over on both systems and the switch-tree
    advantage shrinks toward the fan-in ratio; multi-MTU vectors also
    exercise the ATB's conflict backpressure (a 8 KB vector spans 16
    regions — the whole direct-mapped reach).
    """
    rows = reduce_speedups(dict(hosts=num_hosts, mode=mode, vector_bytes=size)
                           for size in sizes)
    return [{"vector_bytes": size, **row} for size, row in zip(sizes, rows)]
