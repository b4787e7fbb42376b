"""Ablation studies of the active-switch design choices.

Beyond reproducing the paper's figures, these sweeps isolate the
individual design decisions; DESIGN.md section 7 names the claim each
one probes.  Each sweep registers as an ``ablation_*`` experiment
(bottom of this module) whose shape checks state what it must show.
"""

from __future__ import annotations

import inspect
from dataclasses import replace
from typing import Dict, List

from ..apps.reduction import REDUCTION_HCA, reduce_speedups, vector_size_sweep
from ..apps.select import SelectApp
from ..cluster.iostream import ReadStream
from ..cluster.system import System
from ..io.disk import DiskConfig
from ..net import ActiveHeader, ChannelAdapter, Link, Message
from ..runner.api import run_many
from ..runner.harness import spec_app
from ..runner.spec import make_spec
from ..sim import Environment
from ..sim.units import us
from ..switch import ActiveSwitch, ActiveSwitchConfig
from .registry import Experiment, Shape, register


# ----------------------------------------------------------------------
# Cut-through (valid-bit streaming) vs store-and-forward handlers
# ----------------------------------------------------------------------
def ablate_cut_through(scale: float = 1.0) -> Dict[str, float]:
    """Grep 'active' case with and without valid-bit overlap."""
    labels = {"cut-through": True, "store-and-forward": False}
    results = run_many([make_spec("grep", scale=scale,
                                  overrides={"cut_through": cut_through})
                        for cut_through in labels.values()],
                       cases=("active",))
    times = {label: result.cases["active"].exec_ps
             for label, result in zip(labels, results)}
    times["overlap benefit"] = (times["store-and-forward"]
                                / times["cut-through"])
    return times


# ----------------------------------------------------------------------
# Data-buffer count (packet-level reduction at one leaf switch)
# ----------------------------------------------------------------------
def ablate_buffer_count(num_hosts: int = 8,
                        counts=(2, 4, 8, 16)) -> List[dict]:
    """Latency of an 8-way leaf reduction vs available data buffers."""
    results = run_many(
        [make_spec("reduce", hosts=num_hosts, overrides={
            "active_switch": ActiveSwitchConfig(num_buffers=count)})
         for count in counts], cases=("active",))
    return [{"buffers": count,
             "latency_us": result.cases["active"].exec_ps / 1e6}
            for count, result in zip(counts, results)]


# ----------------------------------------------------------------------
# Switch CPU clock ratio (MD5 on one embedded core)
# ----------------------------------------------------------------------
def ablate_clock_ratio(scale: float = 0.5,
                       freqs=(250e6, 500e6, 1e9, 2e9)) -> List[dict]:
    """active+pref vs normal+pref speedup as the embedded core speeds up.

    The normal+pref baseline has no switch CPU, so one cell serves
    every clock.
    """
    def md5(**overrides):
        return make_spec("md5", scale=scale, num_switch_cpus=1,
                         overrides=overrides)

    normal, *actives = run_many(
        [(md5(), ("normal+pref",))]
        + [(md5(active_switch=ActiveSwitchConfig(num_cpus=1,
                                                 cpu_freq_hz=freq)),
            ("active+pref",)) for freq in freqs])
    normal_ps = normal.cases["normal+pref"].exec_ps
    return [{"freq_mhz": freq / 1e6,
             "speedup": normal_ps / active.cases["active+pref"].exec_ps}
            for freq, active in zip(freqs, actives)]


# ----------------------------------------------------------------------
# Prefetch depth (outstanding I/O requests)
# ----------------------------------------------------------------------
def ablate_prefetch_depth(scale: float = 1 / 32,
                          depths=(1, 2, 3, 4)) -> List[dict]:
    """Select 'normal' execution time vs outstanding request count.

    Also reports the disks' measured busy fraction: one outstanding
    request leaves the spindles idle between blocks; two keep them
    saturated — which is why execution time stops improving.
    """
    # Its own driver: depths beyond 2 and disk utilization fit no case.
    rows = []
    app = SelectApp(scale=scale)
    for depth in depths:
        config = replace(app.cluster_config(), prefetch_depth=depth)
        system = System(config)
        runner = app.run_normal(system, depth)
        proc = system.env.process(runner, name=f"depth-{depth}")
        system.env.run(until=proc)
        rows.append({
            "depth": depth,
            "exec_ms": system.env.now / 1e9,
            "disk_utilization": system.storage.disks.utilization(),
        })
    return rows


# ----------------------------------------------------------------------
# Non-interference: forwarding latency under active load
# ----------------------------------------------------------------------
def measure_forwarding_latency(active_load: bool,
                               probes: int = 20) -> float:
    """Mean ep0->ep1 message latency (us) through an active switch,
    optionally while a third endpoint keeps the switch CPU saturated
    with handler work."""
    env = Environment()
    switch = ActiveSwitch(env, "sw0")
    adapters = []
    for port, name in enumerate(["ep0", "ep1", "ep2"]):
        to_switch = Link(env, f"{name}->sw0")
        from_switch = Link(env, f"sw0->{name}")
        adapter = ChannelAdapter(env, name)
        adapter.attach(tx_link=to_switch, rx_link=from_switch)
        switch.connect(port, tx_link=from_switch, rx_link=to_switch)
        switch.routing.add(name, port)
        adapters.append(adapter)
    ep0, ep1, ep2 = adapters

    def busy_handler(ctx):
        yield from ctx.compute(cycles=100_000)  # 200 us of CPU work
        yield from ctx.deallocate(ctx.address + 512)

    switch.register_handler(1, busy_handler)

    if active_load:
        def loader(env):
            for i in range(16):
                yield from ep2.transmit(Message(
                    "ep2", "sw0", size_bytes=512,
                    active=ActiveHeader(handler_id=1,
                                        address=(i % 16) * 512)))
                yield env.timeout(us(210))  # keep exactly one in flight

        env.process(loader(env))

    latencies = []

    def prober(env):
        for _ in range(probes):
            sent = env.now
            yield from ep0.transmit(Message("ep0", "ep1", 256))
            message = yield ep1.recv_queue.get()
            latencies.append(env.now - sent)
            yield env.timeout(us(100))

    probe_proc = env.process(prober(env))
    env.run(until=probe_proc)
    return sum(latencies) / len(latencies) / 1e6


def ablate_noninterference(probes: int = 20) -> Dict[str, float]:
    """Forwarding latency with vs without concurrent active load."""
    # Its own driver: a bare switch with probe endpoints, no app case.
    quiet = measure_forwarding_latency(active_load=False, probes=probes)
    loaded = measure_forwarding_latency(active_load=True, probes=probes)
    return {"quiet_us": quiet, "loaded_us": loaded,
            "slowdown": loaded / quiet}


# ----------------------------------------------------------------------
# Filter placement: one switch CPU serving several storage streams
# ----------------------------------------------------------------------
def ablate_filter_placement(scale: float = 1 / 64,
                            num_streams: int = 2) -> Dict[str, float]:
    """Run ``num_streams`` concurrent filtered scans through ONE switch
    CPU; report how busy it is.  Far below saturation supports the
    paper's claim that a single active switch amortises across multiple
    passive devices instead of requiring one active disk each."""
    # Its own driver: no app case runs several scans on one switch CPU.
    app = SelectApp(scale=scale)
    config = replace(app.cluster_config().with_case(active=True,
                                                    prefetch=True),
                     num_storage=num_streams)
    system = System(config)
    env = system.env

    def one_stream(storage_index: int):
        stream = ReadStream(system, system.host,
                            total_bytes=app.total_bytes,
                            request_bytes=app.request_bytes, depth=2,
                            to_switch=True, request_cost="active",
                            storage_index=storage_index)
        for work in app.blocks:
            arrival = yield from stream.next_block()
            yield from system.process_on_switch(
                work.handler_cycles, 0, arrival_end_ps=arrival.end_ps)
            yield from system.switch_to_host_bulk(system.host,
                                                  work.out_bytes)
            yield from stream.done_with(arrival)

    procs = [env.process(one_stream(i), name=f"scan{i}")
             for i in range(num_streams)]
    env.run(until=env.all_of(procs))
    cpu = system.switch.cpus[0]
    # Streams run in parallel off separate disk arrays, so a disk-bound
    # run finishes in about one stream's worth of disk time.
    single_stream_disk_ps = app.total_bytes / 100e6 * 1e12
    return {
        "streams": float(num_streams),
        "exec_ms": env.now / 1e9,
        "switch_cpu_busy_frac": cpu.accounting.busy_ps / env.now,
        "disk_bound": float(env.now < 1.4 * single_stream_disk_ps
                            + 20e9),
    }


# ----------------------------------------------------------------------
# Storage technology scaling: when do faster disks outrun the handler?
# ----------------------------------------------------------------------
def ablate_storage_scaling(scale: float = 0.5,
                           multipliers=(1, 2, 4, 8)) -> List[dict]:
    """Grep active+pref vs normal+pref as disk bandwidth grows.

    The paper's disks stream 100 MB/s against a 500 MHz handler with
    headroom; as storage gets faster (the 2000s-to-NVMe trajectory) the
    handler becomes the bottleneck and the streaming offload's win
    erodes — the forward-looking sensitivity the paper's fixed testbed
    could not show.
    """
    results = run_many(
        [make_spec("grep", scale=scale, overrides={"disk": DiskConfig(
            bandwidth_bytes_per_s=50e6 * multiplier)})
         for multiplier in multipliers],
        cases=("normal+pref", "active+pref"))
    rows = []
    for multiplier, result in zip(multipliers, results):
        normal = result.cases["normal+pref"]
        active = result.cases["active+pref"]
        switch_busy = (active.switch_cpus[0].busy_frac
                       if active.switch_cpus else 0.0)
        rows.append({
            "disk_mb_s": 100.0 * multiplier,
            "speedup": normal.exec_ps / active.exec_ps,
            "switch_busy_frac": switch_busy,
        })
    return rows


# ----------------------------------------------------------------------
# Selectivity: how much the filter keeps determines the traffic win
# ----------------------------------------------------------------------
def ablate_selectivity(scale: float = 1 / 128,
                       selectivities=(0.05, 0.25, 0.5, 0.9)) -> List[dict]:
    """Select's traffic and host-utilization benefits vs selectivity.

    The active switch's traffic reduction IS the predicate's
    selectivity; at 90 % kept there is little left to win.
    """
    results = run_many([make_spec("select", scale=scale,
                                  selectivity=selectivity)
                        for selectivity in selectivities])
    return [{
        "selectivity": selectivity,
        "traffic_fraction": result.normalized_traffic("active"),
        "util_ratio": (result.utilization("normal+pref")
                       / max(result.utilization("active+pref"), 1e-9)),
    } for selectivity, result in zip(selectivities, results)]


# ----------------------------------------------------------------------
# Output queuing vs input queuing (the paper's Switch-3 design choice)
# ----------------------------------------------------------------------
def ablate_queueing_discipline(num_endpoints: int = 6,
                               messages_per_sender: int = 30):
    """Adversarial fan-in throughput: output-queued vs input-queued.

    Pattern: half the senders all target endpoint 0 (a hot output)
    while each also interleaves traffic to a cold output.  HOL blocking
    makes the cold traffic wait behind the hot in the input-queued
    switch; the output-queued design keeps the cold flows at wire speed.
    """
    # Its own driver: bare passive switches under synthetic traffic.
    from ..net import ChannelAdapter, Link, Message
    from ..switch import BaseSwitch, InputQueuedSwitch, SwitchConfig

    def run(switch_cls):
        env = Environment()
        switch = switch_cls(env, "sw0", SwitchConfig(
            num_ports=num_endpoints))
        adapters = []
        for i in range(num_endpoints):
            name = f"ep{i}"
            to_switch = Link(env, f"{name}->sw0")
            from_switch = Link(env, f"sw0->{name}")
            adapter = ChannelAdapter(env, name)
            adapter.attach(tx_link=to_switch, rx_link=from_switch)
            switch.connect(i, tx_link=from_switch, rx_link=to_switch)
            switch.routing.add(name, i)
            adapters.append(adapter)

        cold_latencies = []
        active_senders = num_endpoints - 3

        def sender(env, index):
            src = adapters[index]
            cold_dst = f"ep{num_endpoints - 1 - (index % 2)}"
            for m in range(messages_per_sender):
                # Hot packet to the shared output, then a cold one whose
                # payload carries its send time.
                yield from src.transmit(Message(src.node_id, "ep0", 512))
                yield from src.transmit(Message(src.node_id, cold_dst, 512,
                                                payload=env.now))

        def cold_receiver(env, adapter, expected):
            for _ in range(expected):
                message = yield adapter.recv_queue.get()
                cold_latencies.append(env.now - message.payload)

        senders = [env.process(sender(env, i))
                   for i in range(1, 1 + active_senders)]
        # Cold destinations are the last two endpoints.
        expected_last = sum(1 for i in range(1, 1 + active_senders)
                            if i % 2 == 1) * messages_per_sender
        expected_second = active_senders * messages_per_sender - expected_last
        receivers = [
            env.process(cold_receiver(env, adapters[num_endpoints - 1],
                                      expected_second)),
            env.process(cold_receiver(env, adapters[num_endpoints - 2],
                                      expected_last)),
        ]
        env.run(until=env.all_of(senders + receivers))
        total = env.now
        return total, sum(cold_latencies) / len(cold_latencies)

    oq_total, oq_cold = run(BaseSwitch)
    iq_total, iq_cold = run(InputQueuedSwitch)
    return {
        "output_queued_ms": oq_total / 1e9,
        "input_queued_ms": iq_total / 1e9,
        "hol_penalty": iq_total / oq_total,
        "cold_latency_ratio": iq_cold / max(oq_cold, 1),
    }


# ----------------------------------------------------------------------
# Receive discipline: polling vs interrupts (the paper's footnote)
# ----------------------------------------------------------------------
def ablate_receive_discipline(num_hosts: int = 64):
    """Reduce-to-one speedup under polling vs interrupt-driven receives.

    "The message receiver uses polling instead of interrupts, which
    favors the normal case since active switches can eliminate most of
    the interrupts."  Switching the MST baseline to interrupt-driven
    receives makes every one of its log2(p) rounds pay the interrupt
    path, widening the active system's win — quantifying how much the
    paper's choice of polling *understates* the benefit.
    """
    # 30 us per interrupt-driven receive: trap + handler + wakeup on a
    # 2003 kernel, vs the 18 us user-level completion poll.
    interrupt = replace(REDUCTION_HCA, receive_mode="interrupt",
                        interrupt_cost_ps=30_000_000)
    hcas = {"polling": REDUCTION_HCA, "interrupt": interrupt}
    return dict(zip(hcas, reduce_speedups(
        dict(hosts=num_hosts, overrides={"hca": hca})
        for hca in hcas.values())))


# ----------------------------------------------------------------------
# Key skew: how imbalance erodes the sort's distribution phase
# ----------------------------------------------------------------------
def ablate_sort_skew(scale: float = 1 / 512,
                     exponents=(0.0, 0.6, 1.0)) -> List[dict]:
    """Sort distribution under Zipf key skew.

    The p/(3p-2) traffic formula assumes uniform keys; with skew a
    static range partition overloads one node, the slowest node
    dominates the phase, and *both* systems degrade — the active
    switch redistributes in-flight but cannot repartition the ranges.
    """
    specs = [make_spec("sort", scale=scale, key_skew=exponent)
             for exponent in exponents]
    rows = []
    for exponent, spec, result in zip(exponents, specs, run_many(specs)):
        app = spec_app(spec)
        imbalance = max(
            sum(counts[node] for blocks in app.node_blocks
                for counts in blocks)
            for node in range(app.num_nodes)
        ) / (app.total_records / app.num_nodes)
        rows.append({
            "zipf_exponent": exponent,
            "imbalance": imbalance,
            "active_exec_ms": result.case("active+pref").exec_ps / 1e9,
            "normal_exec_ms": result.case("normal+pref").exec_ps / 1e9,
            "traffic_fraction": result.normalized_traffic("active"),
        })
    return rows


# ----------------------------------------------------------------------
# Registry entries: one per ablation sweep
# ----------------------------------------------------------------------
def _ablation(experiment_id: str, title: str, sweep, *shape) -> None:
    """Register ``sweep`` at its default arguments; its ``scale``
    parameter, if it has one, is the entry's scale, and a sweep without
    one has fixed inputs."""
    scale = inspect.signature(sweep).parameters.get("scale")
    register(Experiment(
        experiment_id=experiment_id, title=title, paper={}, shape=shape,
        run=sweep if scale else lambda scale=None: sweep(),
        default_scale=scale.default if scale else None))


def _at(key: str, value: str, point):
    """Row ``key == point``'s ``value``."""
    return lambda rows: {row[key]: row[value] for row in rows}[point]


def _ratio(key: str, value: str, top, bottom):
    return lambda rows: (_at(key, value, top)(rows)
                         / _at(key, value, bottom)(rows))


def _steps(rows, key: str = "speedup") -> List[float]:
    """Ratios between consecutive rows' ``key`` values."""
    return [b[key] / a[key] for a, b in zip(rows, rows[1:])]


_ablation(
    "ablation_cut_through", "Ablation: valid-bit streaming on/off (Grep)",
    ablate_cut_through,
    Shape("valid bits overlap the handler",
          lambda t: t["overlap benefit"], ">", 1.10))
_ablation(
    "ablation_buffer_count", "Ablation: data buffers, 8-way leaf reduction",
    ablate_buffer_count,
    Shape("16 buffers no slower than 2",
          _ratio("buffers", "latency_us", 16, 2), "<=", 1.01),
    Shape("2 buffers within 25 % of 16",
          _ratio("buffers", "latency_us", 2, 16), "<=", 1.25))
_ablation(
    "ablation_clock_ratio", "Ablation: switch CPU clock, MD5 on one CPU",
    ablate_clock_ratio,
    Shape("500 MHz loses badly", _at("freq_mhz", "speedup", 500.0), "<", 0.6),
    Shape("speedup rises with every clock step",
          lambda rows: min(_steps(rows)), ">", 1.0),
    Shape("2 GHz (host parity) wins", _at("freq_mhz", "speedup", 2000.0),
          ">", 1.0))
_ablation(
    "ablation_prefetch_depth", "Ablation: outstanding I/O requests (Select)",
    ablate_prefetch_depth,
    Shape("depth 2 beats synchronous", _ratio("depth", "exec_ms", 2, 1),
          "<", 0.95),
    Shape("depth 4 adds nothing",
          lambda rows: abs(_ratio("depth", "exec_ms", 4, 2)(rows) - 1),
          "<", 0.02),
    Shape("depth 1 leaves the disks idle",
          _at("depth", "disk_utilization", 1), "<", 0.95),
    Shape("depth 2 saturates the disks",
          _at("depth", "disk_utilization", 2), ">", 0.95))
_ablation(
    "ablation_noninterference", "Ablation: forwarding under active load",
    ablate_noninterference,
    Shape("forwarding slowdown off 1.0",
          lambda result: abs(result["slowdown"] - 1.0), "<=", 0.02))
_ablation(
    "ablation_filter_placement", "Ablation: one switch CPU, two disk streams",
    ablate_filter_placement,
    Shape("two concurrent streams", lambda r: r["streams"], "==", 2.0),
    Shape("one switch CPU has headroom",
          lambda r: r["switch_cpu_busy_frac"], "<", 0.5),
    Shape("the run stays disk-bound", lambda r: r["disk_bound"], "==", 1.0))
_ablation(
    "ablation_storage_scaling", "Ablation: Grep a+p speedup vs disk bandwidth",
    ablate_storage_scaling,
    Shape("active holds at 100 MB/s", _at("disk_mb_s", "speedup", 100.0),
          ">=", 1.0),
    Shape("handler-bound at 800 MB/s", _at("disk_mb_s", "speedup", 800.0),
          "<", 1.0),
    Shape("erosion is monotone from 200 MB/s",
          lambda rows: max(_steps(rows[1:])), "<=", 1.0))
_ablation(
    "ablation_selectivity", "Ablation: Select traffic vs selectivity",
    ablate_selectivity,
    Shape("traffic off the selectivity",
          lambda rows: max(abs(row["traffic_fraction"] - row["selectivity"])
                           for row in rows), "<", 0.05))
_ablation(
    "ablation_queueing_discipline", "Ablation: output vs input queuing",
    ablate_queueing_discipline,
    Shape("HOL blocking stretches the makespan",
          lambda r: r["hol_penalty"], ">", 1.2),
    Shape("cold flows wait behind hot ones",
          lambda r: r["cold_latency_ratio"], ">", 3.0))
_ablation(
    "ablation_receive_discipline", "Ablation: polling vs interrupt receives",
    ablate_receive_discipline,
    Shape("interrupts widen the active win",
          lambda r: r["interrupt"]["speedup"] / r["polling"]["speedup"],
          ">", 1.0),
    Shape("interrupts slow the MST baseline",
          lambda r: r["interrupt"]["normal_us"] / r["polling"]["normal_us"],
          ">", 1.2))
_ablation(
    "ablation_sort_skew", "Ablation: Zipf key skew in the parallel sort",
    ablate_sort_skew,
    Shape("skew unbalances the partition",
          _ratio("zipf_exponent", "imbalance", 1.0, 0.0), ">", 1.2),
    Shape("distribution stays read-bound",
          _ratio("zipf_exponent", "active_exec_ms", 1.0, 0.0), "<", 1.05),
    Shape("uniform keys off p/(3p-2) at p=4",
          lambda rows: abs(_at("zipf_exponent", "traffic_fraction", 0.0)(
              rows) - 0.40), "<", 0.02))
_ablation(
    "ablation_vector_size", "Ablation: reduction speedup vs vector size",
    vector_size_sweep,
    Shape("speedup falls with every size step",
          lambda rows: max(_steps(rows)), "<", 1.0),
    Shape("strong small-vector win", lambda rows: rows[0]["speedup"],
          ">", 4.0),
    Shape("near parity at 8 KB", lambda rows: rows[-1]["speedup"], "<", 1.5))
