"""Hierarchical handler placement on multi-stage fabrics.

Given a fabric and an aggregation workload (one vector per host,
combined with an associative operation), the placement engine decides
*which switch at which level runs which handler instance*:

``root_only``
    One finalize instance at the fabric's aggregation root; every host
    fires its vector straight at it.  This is the paper's single-switch
    design stretched across a fabric — it works, but the root's ATB and
    CPUs serialize all ``p`` inputs.
``leaf_combine``
    Combine instances on the leaf switches (each folds its attached
    hosts' vectors into one partial), finalize at the root.  Traffic
    above the leaves drops from ``p`` vectors to one per leaf.
``per_level``
    Combine at *every* tree level — leaves fold hosts, each internal
    switch folds its children's partials, the root finalizes.  This is
    the paper's Section 6 "organize the switches logically in a tree"
    scheme; upper-level traffic is one vector per child.

A plan is pure data (:class:`PlacementPlan`); :func:`install_plan`
programs the real switches — dispatch, data buffers, ATB staging slots,
send unit — and :func:`run_placed_reduction` drives a full packet-level
reduction through it.  The finalize instance delivers the result in one
of the paper's Table 2 modes: the whole vector to host 0
(``REDUCE_TO_ONE``), slice *j* to host *j* (``DISTRIBUTED``), or the
whole vector broadcast down the tree to every host (``REDUCE_TO_ALL``).
Per-level combine/forward counters land in a
:class:`~repro.obs.MetricsRegistry` and, when the environment carries a
trace collector, each combine/finalize emits a trace instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..net.hca import AdapterSendError
from ..net.packet import ActiveHeader
from .fabric import Fabric, FabricPartitioned, TopologyError, TreeSwitch

#: Handler IDs installed by the placement engine.
H_COMBINE = 1
H_BROADCAST = 2

#: Where the reduced vector goes (the paper's Table 2 semantics).
REDUCE_TO_ONE = "reduce-to-one"
DISTRIBUTED = "distributed"
REDUCE_TO_ALL = "reduce-to-all"
REDUCTION_MODES = (REDUCE_TO_ONE, DISTRIBUTED, REDUCE_TO_ALL)


class CollectiveTimeout(Exception):
    """A placed collective exhausted its repair/retry attempts."""

#: Switch-side vector add: 2 cycles/word (one buffer operand streams in
#: at single-cycle access, and the add overlaps the copy thanks to the
#: valid bits).
SWITCH_ADD_CYCLES_PER_WORD = 2

PLACEMENT_POLICIES = ("root_only", "leaf_combine", "per_level")


@dataclass(frozen=True)
class Placement:
    """One handler instance: where it runs and what it expects."""

    switch: str
    level: int
    role: str                   # "combine" | "finalize"
    expected: int               # inputs to fold before forwarding
    parent: Optional[str]       # partials go here (None = finalize)
    slot: int                   # ATB staging slot at the parent


@dataclass
class PlacementPlan:
    """Pure-data output of :func:`plan_placement`."""

    policy: str
    root: str
    placements: Dict[str, Placement] = field(default_factory=dict)
    #: host name -> (entry switch, staging slot).
    entry: Dict[str, Tuple[str, int]] = field(default_factory=dict)

    @property
    def instances(self) -> int:
        return len(self.placements)

    def describe(self) -> dict:
        per_level: Dict[int, int] = {}
        for placement in self.placements.values():
            per_level[placement.level] = per_level.get(placement.level, 0) + 1
        return {"policy": self.policy, "root": self.root,
                "instances": self.instances,
                "per_level": dict(sorted(per_level.items()))}


def plan_placement(fabric: Fabric, policy: str,
                   root: Optional[str] = None) -> PlacementPlan:
    """Decide handler placement for an aggregation over ``fabric``.

    On a single-switch (depth-1) fabric every policy degenerates to
    ``root_only``.  On a two-level fat-tree ``per_level`` equals
    ``leaf_combine`` (there is exactly one level above the leaves).

    ``root`` overrides the aggregation root with another *top-level*
    switch — on a fat-tree any spine can finalize, which is what
    :func:`repair_plan` exploits when the default root fail-stops.
    """
    if policy not in PLACEMENT_POLICIES:
        raise TopologyError(
            f"unknown placement policy {policy!r}; "
            f"expected one of {PLACEMENT_POLICIES}")
    if root is None:
        root = fabric.aggregation_root
    else:
        candidates = {node.name: node for node in fabric.levels[-1]}
        if root not in candidates:
            raise TopologyError(
                f"aggregation root {root!r} is not a top-level switch of "
                f"this fabric (candidates: {sorted(candidates)})")
        root = candidates[root]
    plan = PlacementPlan(policy=policy, root=root.name)

    if policy == "root_only" or fabric.depth == 1:
        plan.placements[root.name] = Placement(
            switch=root.name, level=root.level, role="finalize",
            expected=len(fabric.hosts), parent=None, slot=0)
        for i, host in enumerate(fabric.hosts):
            plan.entry[host.name] = (root.name, i)
        return plan

    leaves = fabric.levels[0]
    for index, leaf in enumerate(leaves):
        for offset, host in enumerate(leaf.hosts):
            plan.entry[host.name] = (leaf.name, offset)

    if policy == "leaf_combine":
        # Leaves fold their hosts; partials skip intermediate levels
        # and ride the fabric's host/switch routes straight to the root.
        for index, leaf in enumerate(leaves):
            plan.placements[leaf.name] = Placement(
                switch=leaf.name, level=0, role="combine",
                expected=len(leaf.hosts), parent=root.name, slot=index)
        plan.placements[root.name] = Placement(
            switch=root.name, level=root.level, role="finalize",
            expected=len(leaves), parent=None, slot=0)
        return plan

    # per_level: a combine instance on every switch below the root that
    # aggregates anything, wired along parent pointers (tree) or to the
    # aggregation root (fat-tree leaves, whose physical parents are the
    # whole spine row).
    for level_index, level in enumerate(fabric.levels[:-1]):
        for index, node in enumerate(level):
            if node.name == root.name:
                continue
            if node.parent is not None:
                parent_name = node.parent.name
                slot = node.parent.children.index(node)
            else:
                parent_name, slot = root.name, index
            plan.placements[node.name] = Placement(
                switch=node.name, level=level_index, role="combine",
                expected=node.fan_in, parent=parent_name, slot=slot)
    plan.placements[root.name] = Placement(
        switch=root.name, level=root.level, role="finalize",
        expected=root.fan_in, parent=None, slot=0)
    return plan


# ----------------------------------------------------------------------
# Programming the switches
# ----------------------------------------------------------------------
def region_stride(vector_bytes: int) -> int:
    """ATB staging stride: vector size rounded up to the 512 B region."""
    return -(-vector_bytes // 512) * 512


def install_plan(fabric: Fabric, plan: PlacementPlan, vector_bytes: int,
                 metrics=None, epoch: int = 0,
                 mode: str = REDUCE_TO_ONE) -> None:
    """Register the plan's combine/finalize handlers on the fabric.

    ``metrics`` is an optional :class:`~repro.obs.MetricsRegistry`; each
    placement level gets ``fabric.level<L>.combines`` /
    ``.partials_sent`` counters.  The finalize instance delivers per
    ``mode``: the vector to ``hosts[0]``, slice *j* of it to
    ``hosts[j]`` (every word exactly once; slices differ by at most one
    word when ``p`` does not divide the word count), or — for
    ``REDUCE_TO_ALL`` — down the switch tree through a broadcast handler
    installed on every switch.  Every delivery is an
    ``(epoch, payload)`` pair.

    ``epoch`` makes contributions idempotent across fail-stop repairs:
    every payload carries ``(epoch, contributor, vector)``, and a
    handler drains (reads and deallocates) but never folds a message
    from another epoch or a contributor it has already counted — so a
    retried collective can re-send everything without double-adding,
    and stragglers from a timed-out attempt cannot pollute the repair.
    Each install gets fresh accumulator state captured in the handler
    closure (not looked up through ``kernel_state``), so a stale
    invocation finishing after a re-install cannot touch the new
    epoch's partial sums.
    """
    env = fabric.env
    hosts = fabric.hosts
    words = vector_bytes // 4
    stride = region_stride(vector_bytes)
    by_name = {node.name: node for node in fabric.switches}
    if mode not in REDUCTION_MODES:
        raise ValueError(f"unknown reduction mode {mode!r}; "
                         f"expected one of {REDUCTION_MODES}")

    def broadcast(ctx, node: TreeSwitch, payload):
        # Leaves deliver to their hosts; internal switches fan out to
        # their children's broadcast handlers.
        if node.hosts:
            for host in node.hosts:
                yield from ctx.send(host.name, vector_bytes, payload=payload)
            return
        for child in node.children:
            yield from ctx.send(
                child.name, vector_bytes,
                active=ActiveHeader(handler_id=H_BROADCAST, address=0x0),
                payload=payload)

    counters = {}
    if metrics is not None:
        for level in sorted({p.level for p in plan.placements.values()}):
            counters[level] = (
                metrics.counter(f"fabric.level{level}.combines"),
                metrics.counter(f"fabric.level{level}.partials_sent"))

    for placement in plan.placements.values():
        node = by_name[placement.switch]
        switch = node.switch
        state = {"acc": [0] * words, "count": 0, "seen": set()}
        # Observability mirrors (tests/tools may inspect these); the
        # handler itself only ever touches its closure ``state``.
        switch.kernel_state["fabric_acc"] = state["acc"]
        switch.kernel_state["fabric_count"] = 0
        switch.kernel_state["fabric_expected"] = placement.expected
        switch.kernel_state["fabric_epoch"] = epoch

        def combine_handler(ctx, node=node, switch=switch,
                            placement=placement, state=state):
            yield from ctx.read(ctx.address, vector_bytes)
            msg_epoch, contributor, incoming = ctx.arg
            if msg_epoch != epoch or contributor in state["seen"]:
                # Stale epoch or duplicate: drain the staged region so
                # the buffers recycle, fold nothing.
                yield from ctx.deallocate_range(ctx.address,
                                                ctx.address + stride)
                return
            state["seen"].add(contributor)
            accumulator = state["acc"]
            for w in range(words):
                accumulator[w] = (accumulator[w] + incoming[w]) & 0xFFFFFFFF
            yield from ctx.compute(words * SWITCH_ADD_CYCLES_PER_WORD)
            # Range-exact: a delayed sibling may stage a lower slot
            # after this one — plain deallocate() would free it too.
            yield from ctx.deallocate_range(ctx.address,
                                            ctx.address + stride)
            state["count"] += 1
            switch.kernel_state["fabric_count"] = state["count"]
            pair = counters.get(placement.level)
            if pair is not None:
                pair[0].add(1)
            if env.trace is not None:
                env.trace.instant("fabric", "combine", env.now,
                                  switch=placement.switch,
                                  level=placement.level,
                                  count=state["count"])
            if state["count"] < placement.expected:
                return
            result = list(accumulator)
            if placement.parent is not None:
                if pair is not None:
                    pair[1].add(1)
                yield from ctx.send(
                    placement.parent, vector_bytes,
                    active=ActiveHeader(handler_id=H_COMBINE,
                                        address=placement.slot * stride),
                    payload=(epoch, placement.slot, result))
                return
            if env.trace is not None:
                env.trace.instant("fabric", "finalize", env.now,
                                  switch=placement.switch,
                                  level=placement.level)
            if mode == REDUCE_TO_ONE:
                yield from ctx.send(hosts[0].name, vector_bytes,
                                    payload=(epoch, result))
            elif mode == DISTRIBUTED:
                p = len(hosts)
                for j, host in enumerate(hosts):
                    part = result[j * words // p:(j + 1) * words // p]
                    yield from ctx.send(host.name, max(4, 4 * len(part)),
                                        payload=(epoch, part))
            else:
                yield from broadcast(ctx, node, (epoch, result))

        # Retry attempts (epoch > 0) re-install over the previous
        # attempt's handler; a first install must stay strict so a
        # double install_plan is still a loud bug.
        switch.register_handler(H_COMBINE, combine_handler,
                                replace=epoch > 0)

    if mode != REDUCE_TO_ALL:
        return
    for node in fabric.switches:
        def broadcast_handler(ctx, node=node):
            yield from ctx.read(ctx.address, vector_bytes)
            yield from ctx.deallocate_range(ctx.address,
                                            ctx.address + stride)
            yield from broadcast(ctx, node, ctx.arg)

        node.switch.register_handler(H_BROADCAST, broadcast_handler,
                                     replace=epoch > 0)


def repair_plan(fabric: Fabric, plan: PlacementPlan,
                dead: Iterable[str]) -> PlacementPlan:
    """Re-root a placed aggregation around detected-dead components.

    ``dead`` is the detected set (usually
    :meth:`~repro.cluster.fabric.Fabric.detected_down`).  A dead entry
    (leaf) switch orphans its hosts with no re-parenting possible —
    that is a partition and raises :class:`FabricPartitioned`.  A dead
    *top-level* switch (fat-tree spine) is survivable: the plan is
    re-planned with the same policy onto the first surviving top switch
    every leaf still has a live route to.  When no placed switch died,
    the plan is returned unchanged (a timeout without a detected death
    retries as-is — it may have been congestion).
    """
    dead = set(dead)
    for host, (entry, _slot) in plan.entry.items():
        if entry in dead:
            raise FabricPartitioned(
                f"entry switch {entry} for host {host} is dead; its "
                f"subtree cannot be re-parented")
    affected = dead & {p.switch for p in plan.placements.values()}
    if not affected:
        return plan
    top = fabric.levels[-1]
    top_names = {node.name for node in top}
    if not affected <= top_names:
        raise FabricPartitioned(
            f"dead aggregation switch(es) {sorted(affected - top_names)} "
            f"below the top level have no replacement")
    for candidate in top:
        if candidate.name in dead or candidate.failed_at is not None:
            continue
        if all(leaf.switch.routing.ports_for(candidate.name)
               for leaf in fabric.levels[0]):
            return plan_placement(fabric, plan.policy, root=candidate.name)
    raise FabricPartitioned(
        f"no surviving top-level switch reachable from every leaf "
        f"(dead: {sorted(dead)})")


def run_placed_reduction(fabric: Fabric, plan: PlacementPlan,
                         vectors: List[List[int]], metrics=None,
                         timeout_ps: Optional[int] = None,
                         max_attempts: Optional[int] = None,
                         mode: str = REDUCE_TO_ONE) -> Dict:
    """Full packet-level reduction through the placed handlers.

    Every host fires its vector at its entry switch as an active
    message; the plan's handlers fold and forward partials; every
    receiving host of ``mode`` polls its delivery.  Returns
    ``{"result": [...], "latency_ps": ...}``; ``result`` is the whole
    reduced vector (host 0's delivery, or the hosts' slices
    concatenated for ``DISTRIBUTED``).  For ``DISTRIBUTED`` and
    ``REDUCE_TO_ALL``, ``done["per_host"]`` lists every host's delivery
    in host order.

    With ``timeout_ps`` set (defaulted from the fault plan's
    ``failstop.collective_timeout_ps`` when fail-stop events or handler
    crashes are armed — a contained crash loses a contribution), each
    attempt races an end-to-end deadline.  A timed-out
    attempt consults the fabric's detected-down set, repairs the plan
    (:func:`repair_plan`), bumps the epoch, and re-sends everything —
    idempotent contributions make the re-send safe.  After
    ``max_attempts`` the collective raises :class:`CollectiveTimeout`.
    Without a timeout the pre-1.5 single-attempt path runs unchanged.
    """
    env = fabric.env
    hosts = fabric.hosts
    if len(vectors) != len(hosts):
        raise ValueError(f"{len(vectors)} vectors for {len(hosts)} hosts")
    vector_bytes = len(vectors[0]) * 4
    stride = region_stride(vector_bytes)
    done: Dict = {}

    faults = fabric.injector.plan if fabric.injector is not None else None
    armed = faults is not None and (faults.failstop.enabled
                                    or faults.handler.enabled)
    failstop = faults.failstop if faults is not None else None
    if timeout_ps is None and armed:
        timeout_ps = failstop.collective_timeout_ps
    if max_attempts is None:
        max_attempts = failstop.max_attempts if armed else 1

    sync = {"epoch": 0}

    def sender(i: int, current_plan: PlacementPlan, epoch: int):
        host = hosts[i]
        entry_switch, slot = current_plan.entry[host.name]
        send = host.hca.send(
            entry_switch, vector_bytes,
            active=ActiveHeader(handler_id=H_COMBINE,
                                address=slot * stride),
            payload=(epoch, slot, list(vectors[i])))
        if timeout_ps is None:
            yield from send
            return
        try:
            yield from send
        except AdapterSendError:
            # The host's own uplink died mid-send; the retry loop (or a
            # partition diagnosis at repair time) owns recovery.
            done["send_failures"] = done.get("send_failures", 0) + 1

    def receiver(i: int):
        # One long-lived receiver per receiving host, across attempts:
        # drains stale-epoch deliveries (a timed-out attempt may still
        # complete late) and returns the first current-epoch payload.
        while True:
            message = yield from hosts[i].hca.poll_receive()
            msg_epoch, payload = message.payload
            if msg_epoch == sync["epoch"]:
                return payload

    receivers = [0] if mode == REDUCE_TO_ONE else range(len(hosts))
    recvs = [env.process(receiver(i), name=f"fab-recv-{i}")
             for i in receivers]
    # A lone receiver is raced directly: wrapping it in a condition
    # would add an event and shift what a deadline race processes.
    received = recvs[0] if len(recvs) == 1 else env.all_of(recvs)
    current_plan = plan
    attempt = 0
    while True:
        sync["epoch"] = attempt
        install_plan(fabric, current_plan, vector_bytes, metrics=metrics,
                     epoch=attempt, mode=mode)
        procs = [env.process(sender(i, current_plan, attempt),
                             name=(f"fab-send-{i}" if attempt == 0
                                   else f"fab-send-{i}-e{attempt}"))
                 for i in range(len(hosts))]
        if timeout_ps is None:
            env.run(until=env.all_of(procs + recvs))
            break
        deadline = env.timeout(timeout_ps)
        env.run(until=env.any_of([received, deadline]))
        if received.triggered:
            break
        attempt += 1
        if attempt >= max_attempts:
            raise CollectiveTimeout(
                f"placed reduction still incomplete after {attempt} "
                f"attempt(s) of {timeout_ps} ps (detected down: "
                f"{sorted(fabric.detected_down())})")
        repaired = repair_plan(fabric, current_plan,
                               fabric.detected_down())
        if repaired is not current_plan:
            fabric.ft.repairs += 1
            if env.trace is not None:
                env.trace.instant("fabric", "repair", env.now,
                                  attempt=attempt, root=repaired.root)
        current_plan = repaired
    done["latency_ps"] = env.now
    payloads = [list(recv.value) for recv in recvs]
    if mode != REDUCE_TO_ONE:
        done["per_host"] = payloads
    done["result"] = ([word for part in payloads for word in part]
                      if mode == DISTRIBUTED else list(payloads[0]))
    if timeout_ps is not None:
        done["attempts"] = attempt + 1
        done["repairs"] = fabric.ft.repairs
    return done
