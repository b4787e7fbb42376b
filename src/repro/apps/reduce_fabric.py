"""The scale-out reduction benchmark: ``repro.run("reduce", ...)``.

Runs one reduce-to-one collective over a declarative fabric and maps
the harness's four configurations onto the scale-out question:

normal / normal+pref
    Host-only software reduction — the MST (binomial) baseline running
    *over the same fabric* (messages really transit the leaf/spine or
    tree switches, paying per-hop routing latency).  Prefetch has no
    meaning for a collective; both labels run the identical baseline,
    so harness invariants (every case present) hold.
active / active+pref
    In-network aggregation with the requested handler ``placement``
    (``root_only``, ``leaf_combine``, ``per_level``) installed by the
    placement engine on the fabric's active switches.

The reduction is fully simulated at packet level and the result is
checked against the oracle every run — and because addition mod 2^32
is associative, the active result is bit-identical to the host-only
baseline's.

Examples::

    repro.run("reduce", topology="fat_tree", hosts=64,
              placement="per_level")
    repro.run("reduce", topology="tree", hosts=512, radix=4,
              cases=("normal", "active"))

Fault plans flow through unchanged: a config with ``faults`` enabled
builds the fabric with a :class:`~repro.faults.FaultInjector` attached
to every link and switch, so chaos presets cover multi-hop fabrics.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cluster.config import ClusterConfig
from ..cluster.fabric import TopologySpec, build_fabric
from ..cluster.placement import (PLACEMENT_POLICIES, plan_placement,
                                 run_placed_reduction)
from ..metrics.results import CaseResult
from ..obs.registry import MetricsRegistry
from ..sim.core import Environment
from .reduction import (REDUCE_TO_ONE, REDUCTION_HCA, VECTOR_BYTES,
                        _make_vectors, _oracle, run_normal_reduction)


class FabricReduceApp:
    """Reduce-to-one over a multi-stage fabric, placement-parameterized.

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
                 oversubscription: float = 2.0, data_seed: int = 3):
        if placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement {placement!r}; "
                f"expected one of {PLACEMENT_POLICIES}")
        if vector_bytes < 4 or vector_bytes % 4:
            raise ValueError("vector_bytes must be a positive multiple of 4")
        self.placement = placement
        self.vector_bytes = vector_bytes
        self.data_seed = data_seed
        # Constructing the spec validates the shape parameters eagerly,
        # so a bad grid point fails at spec time, not mid-simulation.
        self.spec = TopologySpec(
            kind=topology, num_hosts=hosts, hosts_per_leaf=hosts_per_leaf,
            switch_ports=switch_ports, radix=radix, spines=spines,
            oversubscription=oversubscription)

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
            from dataclasses import replace as _replace

            from ..faults import FaultInjector
            from ..faults.plan import FailStopFaults
            plan = config.faults
            if not config.active and plan.failstop.enabled:
                # The MST baseline has no end-to-end recovery: a switch
                # killed mid-round would deadlock a receiver forever.
                # The normal cases therefore measure the failure-free
                # baseline (transient faults still apply), which is the
                # reference the availability comparison needs anyway.
                plan = _replace(plan, failstop=FailStopFaults())
            injector = FaultInjector(plan, seed=config.seed)
            env.add_context_provider(injector.failure_context)

        fabric = build_fabric(env, self.spec, cluster_config=config,
                              hca_config=config.hca, injector=injector)
        fabric.validate()
        vectors = _make_vectors(self.spec.num_hosts, seed=self.data_seed,
                                vector_bytes=self.vector_bytes)
        expected = _oracle(vectors)
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
                                        metrics=metrics)
            result = done["result"]
            extra["placement_instances"] = float(plan.instances)
            if "attempts" in done:
                extra["collective_attempts"] = float(done["attempts"])
                extra["collective_repairs"] = float(done["repairs"])
            for name, value in metrics.snapshot("fabric").items():
                extra[name] = value
            placed = set(plan.placements)
            switch_breakdowns = [
                cpu.accounting.finalize(env.now)
                for node in fabric.switches if node.name in placed
                for cpu in node.switch.cpus]
        else:
            outcome = run_normal_reduction(fabric, vectors, REDUCE_TO_ONE)
            result = outcome.result_vector
        if list(result) != expected:
            raise AssertionError(
                f"reduce ({config.case_label}, {self.spec.kind}, "
                f"p={self.spec.num_hosts}, {self.placement}): result "
                f"does not match the oracle")

        exec_ps = env.now
        extra["fabric_depth"] = float(fabric.depth)
        extra["fabric_switches"] = float(len(fabric.switches))
        if injector is not None:
            stats = [link.stats for link in fabric.links.values()]
            retransmits = sum(s.retransmits for s in stats)
            dropped = sum(s.packets_dropped for s in stats)
            corrupted = sum(s.packets_corrupted for s in stats)
            capped = sum(s.capped_backoffs for s in stats)
            abandoned = sum(s.packets_abandoned for s in stats)
            extra["link_retransmits"] = float(retransmits)
            extra["link_packets_dropped"] = float(dropped)
            extra["link_packets_corrupted"] = float(corrupted)
            if capped:
                extra["link_capped_backoffs"] = float(capped)
            if abandoned:
                extra["link_packets_abandoned"] = float(abandoned)
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
