"""Scenarios frozen in ``transport.json`` and how each one is measured.

Shared by ``generate.py`` (which wrote the fixture once, from the
per-block reference simulator) and ``tests/sim/test_golden_burst.py``
(which re-runs every scenario on the burst engine and compares).  Only
public simulator entry points are used, so the same code ran against
both implementations.

One record per scenario:

* ``result`` — the lossless result JSON (``encode_case`` for closed-loop
  cells, ``ServiceResult.to_dict`` for serve points);
* ``metrics_sha256`` — SHA-256 of the system's full metrics snapshot
  without ``sim.event_count``;
* ``event_count`` — the kernel events the reference path scheduled;
* traced scenarios only: ``trace_sha256`` over the trace events sorted
  by ``(phase, component, name, ts_ps, dur_ps, args)``, with the
  ``sim``/``event-heap`` samples removed (their count depends on how
  many kernel events there are), and ``trace_summary``, the per-name
  counts of those events.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from repro.cluster.config import case_configs
from repro.cluster.presets import chaos_2003
from repro.faults.plan import DiskFaults, FaultPlan
from repro.obs import TraceCollector
from repro.runner.cache import encode_case
from repro.runner.harness import CASE_LABELS, Cell, cell_config
from repro.runner.spec import make_spec, paper_grid
from repro.traffic.service import ServiceSpec

#: Extra factor on the registry scales: enough work to exercise
#: prefetch overlap, pool contention and multi-node transfers while
#: keeping the suite fast.
SCALE_FACTOR = 0.05

#: Scripted per-spindle attempt indices forced to fail: attempts 0-2
#: are the first request's first three tries, so that request fails
#: three times before it succeeds; 7 and 8 fail a later request twice.
REPEATED_ERRORS = DiskFaults(error_requests=(0, 1, 2, 7, 8))

#: A transient-error storm dense enough that every stream retries: at
#: scale 0.05 the ``chaos_2003`` rates (2% of reads) fault only a few
#: cells.  It runs the grid at the registry scales, so streams are long
#: enough for prefetch overlap and CPU-pool contention to interleave
#: with the retries.  ``max_retries=64`` keeps every run from
#: exhausting retries.
STORM = FaultPlan(disk=DiskFaults(read_error_rate=0.3, write_error_rate=0.3,
                                  retry_backoff_ps=37_000_000,
                                  max_retries=64))

#: The open-loop specs (fault-free, then under ``chaos_2003``).
SERVE_SPECS = (
    ServiceSpec(app="grep", case="normal", topology="single"),
    ServiceSpec(app="grep", case="active", topology="fat_tree", hosts=16),
)


def grid():
    """The paper grid at :data:`SCALE_FACTOR`, keyed by spec label."""
    return {spec.label: spec for spec in paper_grid(scale=SCALE_FACTOR)}


def _with_app_layout(config, app):
    """``config`` with the app-owned topology and cache fields."""
    base = app.cluster_config()
    return replace(
        config,
        num_hosts=base.num_hosts,
        num_storage=base.num_storage,
        num_switch_cpus=base.num_switch_cpus,
        database_scaled_caches=base.database_scaled_caches,
        cache_scale_divisor=base.cache_scale_divisor,
    )


def _cell(name, app, config, traced=False):
    return name, lambda: run_cell(app, config, traced)


def _serve(name, spec, traced=False):
    return name, lambda: run_serve(spec, traced)


def scenarios():
    """``{group: [(name, thunk), ...]}`` for every frozen scenario.

    Groups map onto the test functions; names are the fixture keys.
    Apps are built lazily per group, so a test pays only for its own.
    """
    specs = grid()
    full = {spec.label: spec for spec in paper_grid()}
    groups = {}
    for label, spec in specs.items():
        def _grid(spec=spec, label=label):
            app = spec.build()
            return [_cell(f"grid/{label}/{case}", app,
                          cell_config(Cell(spec=spec, case=case), app))
                    for case in CASE_LABELS]

        def _chaos(spec=spec, label=label):
            chaos = make_spec(spec.app, preset="chaos_2003",
                              **dict(spec.params))
            app = chaos.build()
            return [_cell(f"chaos/{label}/{case}", app,
                          cell_config(Cell(spec=chaos, case=case, seed=0),
                                      app))
                    for case in CASE_LABELS]

        def _storm(label=label):
            app = full[label].build()
            config = replace(app.cluster_config(), seed=0, faults=STORM)
            return [_cell(f"storm/{label}/{case}", app, case_config)
                    for case, case_config in case_configs(config)]

        groups[f"grid:{label}"] = _grid
        groups[f"chaos:{label}"] = _chaos
        groups[f"storm:{label}"] = _storm

    def _grep():
        return specs["grep"].build()

    def _chaos_fault_free():
        app = _grep()
        config = _with_app_layout(chaos_2003(seed=0, faults=FaultPlan()), app)
        return [_cell(f"chaos-fault-free/grep/{case}", app, case_config)
                for case, case_config in case_configs(config)]

    def _repeated_errors():
        app = _grep()
        config = replace(app.cluster_config(), seed=0,
                         faults=FaultPlan(disk=REPEATED_ERRORS))
        return [_cell(f"repeated-errors/grep/{case}", app, case_config)
                for case, case_config in case_configs(config)]

    def _serve_points():
        out = []
        for spec in SERVE_SPECS:
            out.append(_serve(f"serve/{service_name(spec)}", spec))
            chaos = replace(spec, preset="chaos_2003")
            out.append(_serve(f"serve-chaos/{service_name(chaos)}", chaos))
            storm = replace(spec, overrides=(("faults", STORM),))
            out.append(_serve(f"serve-storm/{service_name(storm)}", storm))
        return out

    def _write_streams():
        return [(f"write-stream/{label}",
                 lambda faults=faults: run_write_stream(faults))
                for label, faults in (("fault-free", None),
                                      ("storm", STORM))]

    def _two_level():
        return [("two-level/ext_two_level", run_two_level)]

    def _traced():
        out = []
        for label in ("grep", "sort"):
            app = specs[label].build()
            for case, config in case_configs(app.cluster_config()):
                out.append(_cell(f"traced/{label}/{case}", app, config,
                                 traced=True))
                out.append(_cell(
                    f"traced-store-and-forward/{label}/{case}", app,
                    replace(config, cut_through=False), traced=True))
                out.append(_cell(
                    f"traced-storm/{label}/{case}", app,
                    replace(config, seed=0, faults=STORM), traced=True))
        app = _grep()
        faulted = _with_app_layout(chaos_2003(seed=0), app).with_case(
            active=True, prefetch=True)
        out.append(_cell("traced-chaos/grep/active+pref", app, faulted,
                         traced=True))
        out += [_serve(f"traced-serve/{service_name(spec)}", spec,
                       traced=True) for spec in SERVE_SPECS]
        return out

    groups["chaos-fault-free"] = _chaos_fault_free
    groups["repeated-errors"] = _repeated_errors
    groups["serve"] = _serve_points
    groups["write-stream"] = _write_streams
    groups["two-level"] = _two_level
    groups["traced"] = _traced
    return groups


def service_name(spec) -> str:
    """Fixture key of one serve point.  The spec label omits fabric
    size, preset and overrides; the only overrides used here are the
    :data:`STORM` fault plan."""
    name = f"{spec.label} hosts={spec.hosts}"
    if spec.preset is not None:
        name += f" preset={spec.preset}"
    if spec.overrides:
        name += " storm"
    return name


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def metrics_digest(snapshot) -> str:
    body = {k: v for k, v in snapshot.items() if k != "sim.event_count"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()


def _trace_events(collector):
    return [e for e in collector.events
            if not (e.component == "sim" and e.name == "event-heap")]


def trace_digest(collector) -> str:
    rows = sorted((e.phase, e.component, e.name, e.ts_ps, e.dur_ps,
                   repr(e.args)) for e in _trace_events(collector))
    return hashlib.sha256(
        "\n".join(map(repr, rows)).encode()).hexdigest()


def trace_summary(collector) -> dict:
    counts = {}
    for e in _trace_events(collector):
        counts[e.name] = counts.get(e.name, 0) + 1
    if collector.dropped:
        counts["dropped"] = collector.dropped
    return dict(sorted(counts.items()))


def _record(result_json, snapshot, collector=None):
    record = {"result": result_json}
    if snapshot is not None:
        record["metrics_sha256"] = metrics_digest(snapshot)
        record["event_count"] = int(snapshot["sim.event_count"])
    if collector is not None:
        record["trace_sha256"] = trace_digest(collector)
        record["trace_summary"] = trace_summary(collector)
    return record


def run_cell(app, config, traced=False) -> dict:
    """One closed-loop cell, measured."""
    collector = TraceCollector() if traced else None
    sink = {}
    result = app.run_case(config, trace=collector, metrics_sink=sink)
    return _record(encode_case(result), sink, collector)


def run_serve(spec, traced=False) -> dict:
    """One open-loop point, measured.

    ``_simulate`` builds its :class:`~repro.cluster.System` internally;
    a recording subclass, swapped in for the duration of the call,
    hands it back for the metrics snapshot.
    """
    import repro.cluster.system as system_module
    from repro.traffic.service import _simulate

    built = []
    original = system_module.System

    class _Recording(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    collector = TraceCollector() if traced else None
    system_module.System = _Recording
    try:
        result = _simulate(spec, trace=collector)
    finally:
        system_module.System = original
    (system,) = built
    return _record(result.to_dict(), system.metrics.snapshot(), collector)


def run_write_stream(faults) -> dict:
    """A traced two-deep :class:`WriteStream` of 16 blocks (no paper
    app writes to disk, so this is the write path's only scenario)."""
    from repro.cluster.config import ClusterConfig
    from repro.cluster.iostream import WriteStream
    from repro.cluster.system import System

    system = System(ClusterConfig(seed=0, faults=faults))
    collector = TraceCollector()
    system.attach_trace(collector)
    env = system.env
    stream = WriteStream(system, system.host, request_bytes=64 * 1024,
                         depth=2)

    def writer(env):
        for _ in range(16):
            yield from stream.write_block()
        yield from stream.drain()

    env.run(until=env.process(writer(env)))
    result = {"exec_ps": env.now, "bytes_written": stream.bytes_written,
              "extra": system.reliability_report()}
    return _record(result, system.metrics.snapshot(), collector)


def run_two_level() -> dict:
    """``ext_two_level``'s rows: the event-driven active-storage reads
    and the event-waiting handler dispatch."""
    from repro.experiments.two_level import compare_filter_placement

    return _record(compare_filter_placement(), None)
