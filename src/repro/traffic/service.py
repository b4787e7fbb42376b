"""Open-loop service simulation: :class:`ServiceSpec` and ``repro.serve()``.

The closed-loop benchmarks answer "how long does one job take"; this
module answers the north-star question "how much traffic can a
configuration sustain, and at what tail latency".  Thousands of logical
client streams issue request-sized invocations of the paper's apps —
grep as search-as-a-service, select/hashjoin as query traffic, MD5 as
integrity checks — against one serving host + storage behind a (single
or multi-stage) switch fabric:

* arrivals come from a deterministic open-loop schedule
  (:mod:`repro.traffic.arrivals`), so load does not slow down when the
  server saturates — queues grow instead, exactly like production;
* every request passes the HCA **admission queue**
  (:mod:`repro.traffic.admission`): bounded depth, drop or
  backpressure, with queue delay accounted separately from service;
* service uses the *real* simulated components: striped disk reads,
  SCSI + TCA costs, the switch (handler offload + per-CPU contention
  in the ``active`` case), shared host downlink, HCA overheads, and
  the host CPU with its cache-hierarchy stall model;
* per-stream and aggregate latencies land in mergeable
  :class:`~repro.metrics.QuantileEstimator` sketches, giving
  p50/p95/p99/max, goodput, and drop rate per run.

A :class:`ServiceSpec` is frozen, picklable, and fingerprintable — the
service analogue of :class:`~repro.runner.AppSpec` — so ``serve()``
results cache and parallelize bit-identically (serial ≡ parallel ≡
cache-restored).

Request lifecycle (one obs instant per transition when a trace
collector is attached): ``arrival → admit (or drop) → dispatch →
complete``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cluster.fabric import TOPOLOGY_KINDS
from ..cpu.accounting import charge
from ..metrics.report import Report
from ..metrics.sampling import QuantileEstimator
from ..net.packet import HEADER_BYTES
from ..sim.units import transfer_ps
from .admission import ADMISSION_POLICIES, CLOSED, AdmissionQueue
from .arrivals import ARRIVAL_KINDS, check_bursty, generate_schedule

#: Service configurations (prefetch is a streaming concept; open-loop
#: requests are naturally pipelined by the worker pool instead).
SERVICE_CASES = ("normal", "active")

#: Wire size of one request message (a descriptor, not the data).
REQUEST_MESSAGE_BYTES = 128

#: Minimum response size (completion + status, even with no payload).
MIN_RESPONSE_BYTES = 64

#: Percentiles every latency series reports.
SERVICE_PERCENTILES = (50.0, 95.0, 99.0)

#: Goodput must stay within this fraction of offered load to count as
#: "sustained" when no explicit SLO is declared.
GOODPUT_TOLERANCE = 0.95

_SECOND_PS = 1_000_000_000_000


@dataclass(frozen=True)
class ServiceSpec:
    """One open-loop service configuration, ready to run or sweep.

    Like :class:`~repro.runner.AppSpec`: frozen, hashable, picklable,
    canonically fingerprintable.  Build one with
    :func:`make_service_spec` (which normalizes ``overrides`` dicts)
    or directly.
    """

    app: str = "grep"
    case: str = "active"
    arrival: str = "poisson"
    rate_rps: float = 1000.0
    duration_s: float = 0.02
    num_streams: int = 64
    num_keys: int = 256
    zipf_exponent: float = 1.1
    depth: int = 64
    policy: str = "drop"
    workers: int = 8
    topology: str = "single"
    hosts: int = 1
    preset: Optional[str] = None
    overrides: Tuple[Tuple[str, object], ...] = ()
    seed: int = 0
    scale: float = 0.05
    slo_ms: Optional[float] = None
    burst_factor: float = 4.0
    burst_fraction: float = 0.1
    cycle_s: float = 0.005

    def __post_init__(self):
        if self.case not in SERVICE_CASES:
            raise ValueError(f"unknown service case {self.case!r}; "
                             f"known: {SERVICE_CASES}")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival kind {self.arrival!r}; "
                             f"known: {ARRIVAL_KINDS}")
        if self.topology not in TOPOLOGY_KINDS:
            raise ValueError(f"unknown topology {self.topology!r}; "
                             f"known: {TOPOLOGY_KINDS}")
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy {self.policy!r}; "
                             f"known: {ADMISSION_POLICIES}")
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive, got {self.duration_s}")
        for name in ("num_streams", "num_keys", "depth", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.arrival == "bursty":
            check_bursty(self.burst_factor, self.burst_fraction,
                         self.cycle_s)
        if self.hosts < 1:
            raise ValueError(f"hosts must be >= 1, got {self.hosts}")
        if self.topology != "single" and self.hosts < 2:
            raise ValueError(
                "multi-switch topologies need hosts >= 2 (one server "
                "plus at least one client-facing port)")
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {self.slo_ms}")

    @property
    def label(self) -> str:
        """Short human name: ``grep:active@fat_tree poisson@2000rps``."""
        return (f"{self.app}:{self.case}@{self.topology} "
                f"{self.arrival}@{self.rate_rps:g}rps")

    def at_rate(self, rate_rps: float) -> "ServiceSpec":
        """The same configuration at a different offered load."""
        return replace(self, rate_rps=rate_rps)


def make_service_spec(app="grep", *, overrides: Optional[dict] = None,
                      **params) -> ServiceSpec:
    """Normalize kwargs (and ``overrides`` dicts) into a ServiceSpec."""
    if isinstance(app, ServiceSpec):
        if params or overrides:
            raise ValueError("pass parameters inside the ServiceSpec, "
                             "not alongside it")
        return app
    if not isinstance(app, str):
        raise TypeError(f"app must be a registered application name, "
                        f"got {app!r}")
    return ServiceSpec(
        app=app,
        overrides=tuple(sorted((overrides or {}).items())),
        **params)


# ----------------------------------------------------------------------
# Result container
# ----------------------------------------------------------------------
@dataclass
class ServiceResult:
    """Everything one open-loop run measured (JSON-losslessly codable)."""

    name: str
    app: str
    case: str
    topology: str
    arrival: str
    policy: str
    rate_rps: float
    seed: int
    slo_ms: Optional[float]
    duration_ps: int
    horizon_ps: int
    offered: int
    admitted: int
    dropped: int
    completed: int
    drop_rate: float
    offered_rps: float
    throughput_rps: float
    goodput_rps: float
    slo_attainment: float
    latency_us: Dict[str, float]
    queue_delay_us: Dict[str, float]
    service_time_us: Dict[str, float]
    streams: int
    worst_stream_p99_us: Optional[float]
    admission: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    # -- reporting ----------------------------------------------------
    def latency_summary(self) -> Dict[str, object]:
        """The sections :meth:`repro.metrics.Report.latency` renders."""
        return {
            "series": {
                "latency (us)": self.latency_us,
                "queue delay (us)": self.queue_delay_us,
                "service time (us)": self.service_time_us,
            },
            "rates": {
                "offered RPS": self.offered_rps,
                "throughput RPS": self.throughput_rps,
                "goodput RPS": self.goodput_rps,
                "drop rate": self.drop_rate,
                "SLO attainment": self.slo_attainment,
            },
            "slo_ms": self.slo_ms,
            "worst_stream_p99_us": self.worst_stream_p99_us,
            "streams": self.streams,
        }

    def report(self) -> Report:
        """Figure-style renderings; :meth:`Report.latency` is the one
        that applies to service results."""
        return Report(self)

    def meets_slo(self, slo_ms: Optional[float] = None,
                  max_drop_rate: float = 0.01) -> bool:
        """Did this run sustain its load under the (given) SLO?

        The knee search's test (:func:`_sustained`), so a point the
        search calls the knee never meets its SLO.
        """
        return _sustained(self, self.slo_ms if slo_ms is None else slo_ms,
                          max_drop_rate)

    # -- lossless codec (cache entries, pool results) -----------------
    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ServiceResult":
        return cls(**data)


def _sustained(result: ServiceResult, slo_ms: Optional[float],
               max_drop_rate: float) -> bool:
    """One shared "did this rate point hold" predicate.

    Used identically by :meth:`ServiceResult.meets_slo`, the exhaustive
    sweep, the adaptive search, and the experiments, so every path
    agrees on what a knee is: drop rate under ``max_drop_rate``, every
    admitted request completed, goodput within
    :data:`GOODPUT_TOLERANCE` of offered load, and — when an SLO
    applies — aggregate p99 under it.
    """
    ok = (result.drop_rate <= max_drop_rate
          and result.completed == result.admitted
          and result.goodput_rps >= GOODPUT_TOLERANCE * result.offered_rps)
    if ok and slo_ms is not None:
        p99 = result.latency_us.get("p99")
        ok = p99 is not None and p99 <= slo_ms * 1000.0
    return ok


# ----------------------------------------------------------------------
# The simulation
# ----------------------------------------------------------------------
def _summary(est: QuantileEstimator) -> Dict[str, float]:
    return est.summary(SERVICE_PERCENTILES)


def _simulate(spec: ServiceSpec, trace=None) -> ServiceResult:
    """One deterministic open-loop run (the serial reference path).

    The per-process template cache serves the built app, so sweep
    points at different rates share one build, and the fabric's client
    hop counts, so they share one routing-table walk.
    """
    from ..cluster.system import System
    from ..cluster.template import cached_service_app, client_hops

    app_spec, app = cached_service_app(spec)
    config = replace(app_spec.base_config(app), seed=spec.seed)
    config = config.with_case_label(spec.case)

    system = System(config)
    env = system.env
    if trace is not None:
        system.attach_trace(trace)
    env.add_context(app=f"serve:{spec.app}", config=spec.label)

    host = system.host
    storage = system.storage
    # Warm service: heads parked at the log's start, so the first
    # request measures steady-state service, not a cold 5 ms seek.
    storage.disks.position_heads(0)
    hca_cfg = config.hca
    link_cfg = config.link
    routing_ps = config.switch.routing_latency_ps

    schedule = generate_schedule(
        spec.arrival, spec.rate_rps, spec.duration_s,
        num_streams=spec.num_streams, num_keys=spec.num_keys,
        zipf_exponent=spec.zipf_exponent, seed=spec.seed,
        burst_factor=spec.burst_factor, burst_fraction=spec.burst_fraction,
        cycle_s=spec.cycle_s)

    # Client access paths: streams map round-robin onto the fabric's
    # non-serving hosts; hop counts come from real routing-table walks.
    hops = client_hops(spec.topology, spec.hosts)
    if spec.hosts > 1:
        stream_hops = [hops[1 + (s % (spec.hosts - 1))]
                       for s in range(spec.num_streams)]
    else:
        stream_hops = [hops[0]] * spec.num_streams

    def _net_ps(nbytes: int, hop_count: int) -> int:
        # Cut-through: one serialization plus per-hop latch/propagation,
        # NIC processing at both ends.
        return (2 * hca_cfg.per_packet_ps
                + transfer_ps(nbytes + HEADER_BYTES,
                              link_cfg.bandwidth_bytes_per_s)
                + hop_count * (link_cfg.propagation_ps + routing_ps))

    ingress_ps = [_net_ps(REQUEST_MESSAGE_BYTES, h) for h in stream_hops]

    queue = AdmissionQueue(env, depth=spec.depth, policy=spec.policy)
    host.hca.attach_admission(queue)

    blocks = app.blocks
    # Per block, fixed for the run: the response size and its egress
    # time for every client hop count.
    responses = []
    for work in blocks:
        nbytes = max(work.out_bytes, MIN_RESPONSE_BYTES)
        responses.append((nbytes, {h: _net_ps(nbytes, h)
                                   for h in set(stream_hops)}))
    per_stream: Dict[int, QuantileEstimator] = {}
    queue_delay_est = QuantileEstimator()
    service_time_est = QuantileEstimator()
    # ``cpu_free_ps`` is the contended host CPU: workers reach it in
    # chronological order, so a scalar free-at grants FIFO.
    completed = ok = last_completion_ps = cursor = cpu_free_ps = 0
    slo_ps = (None if spec.slo_ms is None
              else int(spec.slo_ms * 1_000_000_000))
    collector = env.trace
    active = spec.case == "active"
    cpu = host.cpu
    recv_poll_ps = hca_cfg.recv_poll_ps
    send_ps = hca_cfg.send_overhead_ps

    def feeder(env):
        # Server-side arrival order: client timestamp plus access-path
        # latency (streams nearer the serving leaf arrive sooner).
        arrivals = sorted((arr.t_ps + ingress_ps[arr.stream], arr.index, arr)
                          for arr in schedule)
        for t_server, _, arr in arrivals:
            if t_server > env.now:
                yield env.timeout(t_server - env.now)
            if collector is not None:
                collector.instant("traffic", "service.arrival", env.now,
                                  req=arr.index, stream=arr.stream)
            admitted = queue.try_offer(arr)
            if admitted is None:
                admitted = yield from queue.offer(arr)
            if collector is not None:
                collector.instant(
                    "traffic", "service.admit" if admitted else "service.drop",
                    env.now, req=arr.index, stream=arr.stream)
        queue.close(spec.workers)

    def worker(env):
        nonlocal completed, ok, last_completion_ps, cursor, cpu_free_ps
        while True:
            entry = yield queue.take()
            if entry is CLOSED:
                return
            offered_ps, arr = entry
            dispatch_ps = env.now
            if collector is not None:
                collector.instant("traffic", "service.dispatch", dispatch_ps,
                                  req=arr.index, stream=arr.stream)
            block = arr.key_rank % len(blocks)
            work = blocks[block]

            # Post the storage read (queue-pair doorbell on the host).
            #
            # The request's post -> storage -> handler dispatch prefix
            # is a chain of FIFO stages whose completion order equals
            # dispatch order, so all of its reservations can be made
            # *now* at future ready times and still grant exactly as a
            # staged walk would — one timeout replaces one per stage.
            # Past the multi-CPU handler pool a later request can
            # overtake an earlier one, so from there the walk stays at
            # real event times.
            post_done = charge(cpu, max(env.now, cpu_free_ps), recv_poll_ps)
            post_done = charge(cpu, post_done, send_ps)
            cpu_free_ps = post_done

            # Storage: TCA + SCSI + striped spindles, log-structured
            # (sequential) layout so positioning amortizes like the
            # paper's streams.
            offset = cursor
            cursor += work.nbytes
            _, read_done = storage.serve_read_burst(
                post_done, offset, work.nbytes)

            if active:
                # Handler on a free switch CPU (contended pool), then
                # only the filtered bytes cross the host downlink.  Its
                # cache stalls are priced on the CPU that will run it.
                stall_fn = work.handler_stall_fn
                stall = (0 if stall_fn is None else stall_fn(
                    system.switch_cpu_peek_at(read_done).hierarchy))
                handler_done = system.process_on_switch_at(
                    read_done, work.handler_cycles, stall)
                if handler_done > env.now:
                    yield env.timeout(handler_done - env.now)
                if work.out_bytes > 0:
                    end = system.switch_to_host_bulk_at(
                        host, work.out_bytes, env.now)
                    if end > env.now:
                        yield env.timeout(end - env.now)
                host_cycles = work.active_host_cycles
                host_stall_fn = work.active_host_stall_fn
            else:
                # The whole block crosses the (shared) host downlink —
                # single-wire FIFO, so the walk reserves it at the
                # analytic arrival time and sleeps once.
                end = system.switch_to_host_bulk_at(
                    host, work.nbytes, read_done)
                if end > env.now:
                    yield env.timeout(end - env.now)
                host_cycles = work.host_cycles
                host_stall_fn = work.host_stall_fn

            # Host portion + response post, on the contended host CPU.
            t = charge(cpu, max(env.now, cpu_free_ps), recv_poll_ps)
            t = charge(cpu, t, cpu.clock.cycles(host_cycles),
                       0 if host_stall_fn is None
                       else host_stall_fn(host.hierarchy))
            t = charge(cpu, t, send_ps)
            cpu_free_ps = t
            if t > env.now:
                yield env.timeout(t - env.now)

            done_ps = env.now
            if collector is not None:
                collector.instant("traffic", "service.complete", done_ps,
                                  req=arr.index, stream=arr.stream)
            response_bytes, egress_ps = responses[block]
            host.hca.account_bulk_out(response_bytes)
            egress = egress_ps[stream_hops[arr.stream]]
            latency_ps = done_ps + egress - arr.t_ps
            est = per_stream.get(arr.stream)
            if est is None:
                est = per_stream[arr.stream] = QuantileEstimator()
            est.add(latency_ps / 1e6)
            queue_delay_est.add((dispatch_ps - offered_ps) / 1e6)
            service_time_est.add((done_ps - dispatch_ps) / 1e6)
            completed += 1
            if slo_ps is None or latency_ps <= slo_ps:
                ok += 1
            last_completion_ps = max(last_completion_ps, done_ps + egress)

    system.metrics.register("service.offered", lambda: queue.offered)
    system.metrics.register("service.admitted", lambda: queue.admitted)
    system.metrics.register("service.dropped", lambda: queue.dropped)
    system.metrics.register("service.completed", lambda: completed)

    procs = [env.process(feeder(env), name="service-feeder")]
    for i in range(spec.workers):
        procs.append(env.process(worker(env), name=f"service-worker{i}"))
    env.run(until=env.all_of(procs))

    duration_ps = int(round(spec.duration_s * _SECOND_PS))
    horizon_ps = max(duration_ps, last_completion_ps)
    horizon_s = horizon_ps / _SECOND_PS
    aggregate = QuantileEstimator.merged(
        [per_stream[s] for s in sorted(per_stream)])
    worst_p99 = None
    for est in per_stream.values():
        p99 = est.percentile(99)
        if worst_p99 is None or (p99 is not None and p99 > worst_p99):
            worst_p99 = p99

    return ServiceResult(
        name=spec.label,
        app=spec.app,
        case=spec.case,
        topology=spec.topology,
        arrival=spec.arrival,
        policy=spec.policy,
        rate_rps=spec.rate_rps,
        seed=spec.seed,
        slo_ms=spec.slo_ms,
        duration_ps=duration_ps,
        horizon_ps=horizon_ps,
        offered=queue.offered,
        admitted=queue.admitted,
        dropped=queue.dropped,
        completed=completed,
        drop_rate=queue.drop_rate,
        offered_rps=queue.offered / spec.duration_s,
        throughput_rps=completed / horizon_s,
        goodput_rps=ok / horizon_s,
        slo_attainment=(ok / completed) if completed else 0.0,
        latency_us=_summary(aggregate),
        queue_delay_us=_summary(queue_delay_est),
        service_time_us=_summary(service_time_est),
        streams=len(per_stream),
        worst_stream_p99_us=worst_p99,
        admission=queue.snapshot(env.now),
        extra=system.reliability_report(),
    )


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------
def service_key(spec: ServiceSpec) -> str:
    """Cache key: spec content + code version (like ``cell_key``).

    The simulation mode tag keeps approximate (fluid) results from
    ever being restored as exact ones, or vice versa.
    """
    from ..runner.fingerprint import code_version, fingerprint
    from ..sim.burst import sim_mode_tag
    return fingerprint("service", spec, code_version(), sim_mode_tag())


def serve(app="grep", *, cache=None, trace=None, **params) -> ServiceResult:
    """Run one open-loop service configuration.

    ``app`` is a :class:`ServiceSpec` (the canonical typed path) or a
    registered application name with spec fields as keywords::

        import repro

        spec = repro.ServiceSpec(app="grep", case="active",
                                 rate_rps=2000, slo_ms=2.0)
        result = repro.serve(spec, cache=True)
        print(result.report().latency())

    ``cache`` works like ``repro.run``'s: ``True`` for the default
    directory, a path, or a :class:`~repro.runner.ResultCache`; omitted,
    it is :func:`repro.configure`'s default.  Cached
    results restore bit-identically (the codec is lossless).  ``trace``
    is an optional ``repro.obs.TraceCollector`` receiving one instant
    per request transition (arrival/admit/drop/dispatch/complete);
    tracing bypasses the cache so the observed simulation really runs.
    """
    spec = make_service_spec(app, **params)
    if trace is not None:
        return _simulate(spec, trace=trace)
    [(result, _)] = _evaluate([spec], _store(cache))
    return result


def _store(cache):
    """The result store a ``cache`` argument names; omitted (``None``),
    :func:`repro.configure`'s default, as for ``repro.run``."""
    from ..runner.api import _default
    from ..runner.cache import resolve_cache
    return resolve_cache(_default("cache", cache))


def _evaluate(points: Sequence[ServiceSpec], store,
              simulate: Optional[Callable[[List[ServiceSpec]],
                                          List[ServiceResult]]] = None,
              ) -> List[Tuple[ServiceResult, bool]]:
    """The one cached evaluator behind ``serve``, sweeps and knee searches.

    Looks every point up in ``store`` (a
    :class:`~repro.runner.ResultCache`, or ``None`` for no cache), runs
    the misses through ``simulate`` — specs in, results out, by default
    :func:`_simulate` on each in order — stores what it simulated, and
    returns ``(result, simulated)`` per point, aligned with ``points``.
    """
    keys = [None if store is None else service_key(point)
            for point in points]
    out: List[Optional[Tuple[ServiceResult, bool]]] = [None] * len(points)
    misses = []
    for index, key in enumerate(keys):
        payload = None if key is None else store.get_json(key)
        if payload is None:
            misses.append(index)
        else:
            out[index] = (ServiceResult.from_dict(payload), False)
    if misses:
        wanted = [points[index] for index in misses]
        fresh = (simulate(wanted) if simulate is not None
                 else [_simulate(point) for point in wanted])
        for index, result in zip(misses, fresh):
            if store is not None:
                store.put_json(keys[index], result.to_dict(),
                               meta={"label": points[index].label})
            out[index] = (result, True)
    return out  # type: ignore[return-value]
