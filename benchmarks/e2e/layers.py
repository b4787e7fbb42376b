"""Per-layer host-time attribution for the traced benchmark run.

The simulator's layers are the ``repro.<layer>`` packages.  The traced
run wraps, at runtime and from this file only, every public function and
method those packages define (``__init__`` included), so a call that
crosses from one layer into another opens a span for the callee's layer.
Nothing inside ``src/`` changes; :func:`instrument` undoes every patch.

Rules:

* a call into a layer that is already on top of the span stack passes
  straight through, so a layer's internal calls cost one check each;
* generator functions (the DES processes) are timed per resume: each
  ``send``/``throw`` into the generator is one span segment;
* ``Environment.process`` also wraps generators built from private
  closures, attributing each resume to the layer whose file defines it;
* time inside a benchmark op that no wrapped call covers belongs to the
  op itself; :func:`layer_metrics` folds it into ``sim`` (the kernel
  and everything not behind a wrapped call) and reports the covered
  share as ``trace.coverage``.

The :class:`Recorder` accumulates each layer's self time (span minus
child spans) and call count in place.  It keeps only root (op) spans and
coarse spans (at least :data:`COARSE_NS` long, or enclosing one) as
``(id, parent, start, end, layer, name)`` records; hot leaf calls are
aggregated without a record.  :func:`write_perfetto` writes the kept
spans as Chrome ``trace_event`` JSON, which Perfetto loads.

Benchmark code must reach the simulator through module attributes
(``repro.serve(...)``, ``app.run_case(...)``) rather than names bound by
``from ... import`` before :func:`instrument` runs: module-level
functions are patched in the ``repro`` modules' namespaces only.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import pkgutil
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: The layers reported per run: every ``repro.<layer>`` package except
#: ``bench`` (the older harness, which no workload exercises).
LAYERS = ("apps", "cluster", "cpu", "experiments", "faults", "io", "mem",
          "metrics", "net", "obs", "runner", "sim", "switch", "traffic",
          "workloads")

#: Pseudo-layer of the benchmark op spans (the roots of every stack).
OP = "op"

#: Spans at least this long are kept as records (with their ancestors).
COARSE_NS = 100_000

#: Kept-span cap; spans past it are counted in ``Recorder.dropped``.
MAX_SPANS = 200_000

#: Classes whose instances the traced run inspects after each op for
#: deterministic counters: (layer, class name) -> census kind.
CENSUS = {
    ("sim", "Environment"): "env",
    ("mem", "MemoryHierarchy"): "hierarchy",
    ("net", "Link"): "link",
    ("io", "Disk"): "disk",
    ("cpu", "HostCPU"): "host_cpu",
    ("cpu", "SwitchCPU"): "switch_cpu",
    ("obs", "TraceCollector"): "collector",
    ("faults", "FaultInjector"): "injector",
}

Frame = list  # [layer, name, start_ns, child_ns, span_id, keep]
Span = Tuple[int, int, int, int, str, str]


class Recorder:
    """A span stack with in-place self-time aggregation."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 coarse_ns: int = COARSE_NS):
        self.clock = clock
        self.coarse_ns = coarse_ns
        self.stack: List[Frame] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.spans: List[Span] = []
        self.dropped = 0
        self.census: Dict[str, list] = defaultdict(list)
        self._next_id = 1

    def enter(self, layer: str, name: str) -> Frame:
        frame = [layer, name, 0, 0, self._next_id, False]
        self._next_id += 1
        self.stack.append(frame)
        frame[2] = self.clock()
        return frame

    def exit(self, frame: Frame) -> None:
        end = self.clock()
        stack = self.stack
        if stack.pop() is not frame:
            raise RuntimeError(f"span {frame[1]!r} exited out of order")
        layer, name, start, child, span_id, keep = frame
        duration = end - start
        self.self_ns[layer] += duration - child
        self.calls[layer] += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        if keep or parent is None or duration >= self.coarse_ns:
            if parent is not None:
                parent[5] = True
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent[4] if parent else 0,
                                   start, end, layer, name))
            else:
                self.dropped += 1

    @contextmanager
    def span(self, layer: str, name: str):
        frame = self.enter(layer, name)
        try:
            yield frame
        finally:
            self.exit(frame)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def timed_generator(rec: Recorder, gen, layer: str, name: str):
    """Drive ``gen``, timing each resume as one ``layer`` span segment."""
    stack = rec.stack
    value, error = None, None
    while True:
        frame = (None if stack and stack[-1][0] == layer
                 else rec.enter(layer, name))
        try:
            if error is None:
                item = gen.send(value)
            else:
                item = gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            if frame is not None:
                rec.exit(frame)
        value, error = None, None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # re-raised inside gen by throw()
            error = exc


_TIMED_CODE = timed_generator.__code__


def _timed(rec: Recorder, gen, layer: str):
    wrapped = timed_generator(rec, gen, layer, gen.__qualname__)
    # Process names default to the generator's name; keep them intact.
    wrapped.__name__, wrapped.__qualname__ = gen.__name__, gen.__qualname__
    return wrapped


def _wrap(rec: Recorder, fn, layer: str, kind: Optional[str] = None):
    name = fn.__qualname__
    if inspect.isgeneratorfunction(fn):
        def wrapper(*args, **kwargs):
            return _timed(rec, fn(*args, **kwargs), layer)
    elif kind is not None:
        def wrapper(self, *args, **kwargs):
            stack = rec.stack
            if stack and stack[-1][0] == layer:
                fn(self, *args, **kwargs)
            else:
                frame = rec.enter(layer, name)
                try:
                    fn(self, *args, **kwargs)
                finally:
                    rec.exit(frame)
            rec.census[kind].append(self)
    else:
        def wrapper(*args, **kwargs):
            stack = rec.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = rec.enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit(frame)
    functools.update_wrapper(wrapper, fn)
    return wrapper


def layer_of(module_name: str) -> Optional[str]:
    """``repro.traffic.service`` -> ``traffic``; None outside the layers."""
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def _layer_modules():
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__") and layer_of(info.name):
            importlib.import_module(info.name)
    import sys
    return [module for name, module in sorted(sys.modules.items())
            if name.startswith("repro") and module is not None]


@contextmanager
def instrument(rec: Recorder):
    """Wrap every layer's public surface for the duration of the block."""
    patches: List[Tuple[object, str, object]] = []

    def patch(owner, attr, value):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    modules = _layer_modules()
    file_layer: Dict[str, str] = {}
    functions: Dict[int, Tuple[object, object]] = {}
    for module in modules:
        layer = layer_of(module.__name__)
        if layer is None:
            continue
        file_layer[getattr(module, "__file__", "")] = layer
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or \
                    getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                functions[id(obj)] = (obj, _wrap(rec, obj, layer))
            elif isinstance(obj, type) and not issubclass(
                    obj, (BaseException, enum.Enum)):
                _wrap_class(rec, obj, layer, patch)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = functions.get(id(obj))
            if hit is not None and hit[0] is obj:
                patch(module, attr, hit[1])

    from repro.sim.core import Environment
    process = Environment.process

    def process_wrapper(self, generator, *args, **kwargs):
        code = getattr(generator, "gi_code", None)
        if code is not None and code is not _TIMED_CODE:
            layer = file_layer.get(code.co_filename)
            if layer is not None:
                generator = _timed(rec, generator, layer)
        return process(self, generator, *args, **kwargs)

    patch(Environment, "process", functools.update_wrapper(
        process_wrapper, process))
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _wrap_class(rec: Recorder, cls: type, layer: str, patch) -> None:
    kind = CENSUS.get((layer, cls.__name__))
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        if isinstance(member, types.FunctionType):
            patch(cls, attr, _wrap(rec, member, layer,
                                   kind if attr == "__init__" else None))
        elif isinstance(member, (staticmethod, classmethod)) and \
                isinstance(member.__func__, types.FunctionType):
            patch(cls, attr, type(member)(_wrap(rec, member.__func__, layer)))


# ----------------------------------------------------------------------
# Census: deterministic counters read off the instances an op created
# ----------------------------------------------------------------------
def take_census(rec: Recorder, totals: Dict[str, float]) -> None:
    """Add the counters of every instance created since the last call to
    ``totals``, then forget the instances."""
    census = rec.census

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for env in census["env"]:
        add("sim.events", env.event_count)
    for hierarchy in census["hierarchy"]:
        for level in ("l1d", "l1i", "l2"):
            cache = getattr(hierarchy, level)
            if cache is not None:
                add("mem.accesses", cache.stats.accesses)
                if level != "l1i":
                    add(f"mem.{level}_accesses", cache.stats.accesses)
                    add(f"mem.{level}_misses", cache.stats.misses)
    for kind in ("host_cpu", "switch_cpu"):
        for cpu in census[kind]:
            add("cpu.busy_ps", cpu.accounting.busy_ps)
            add("cpu.stall_ps", cpu.accounting.stall_ps)
            if kind == "switch_cpu":
                add("switch.cpu_busy_ps", cpu.accounting.busy_ps)
    for link in census["link"]:
        add("net.packets_sent", link.stats.packets_sent)
        add("net.packets_delivered", link.stats.packets_delivered)
        add("net.retransmits", link.stats.retransmits)
    for disk in census["disk"]:
        add("io.disk_requests", disk.stats.requests)
        add("io.disk_retries", disk.stats.retries)
    for collector in census["collector"]:
        add("obs.trace_events", len(collector.events))
        add("obs.trace_dropped", collector.dropped)
    for injector in census["injector"]:
        add("faults.injected", sum(injector.injected.values()))
    census.clear()


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def layer_metrics(rec: Recorder, totals: Dict[str, float],
                  op_ns: int) -> Dict[str, float]:
    """Per-layer metrics of a traced run (values only; units in run.py).

    ``op_ns`` is the summed duration of every op span.  Ratios over an
    empty denominator report their neutral value: a miss ratio of 0 when
    nothing was accessed, a delivered/admitted ratio of 1 when nothing
    was sent/offered.
    """
    self_s = {layer: rec.self_ns.get(layer, 0) / 1e9 for layer in LAYERS}
    unattributed_s = rec.self_ns.get(OP, 0) / 1e9
    self_s["sim"] += unattributed_s
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = rec.calls.get(layer, 0)
    events = totals.get("sim.events", 0)
    accesses = totals.get("mem.accesses", 0)
    out.update({
        "sim.events": events,
        "sim.us_per_event": _ratio(self_s["sim"] * 1e6, events, 0.0),
        "mem.accesses": accesses,
        "mem.ns_per_access": _ratio(self_s["mem"] * 1e9, accesses, 0.0),
        "mem.l1d_miss_ratio": _ratio(totals.get("mem.l1d_misses", 0),
                                     totals.get("mem.l1d_accesses", 0), 0.0),
        "mem.l2_miss_ratio": _ratio(totals.get("mem.l2_misses", 0),
                                    totals.get("mem.l2_accesses", 0), 0.0),
        "cpu.busy_ps": totals.get("cpu.busy_ps", 0),
        "cpu.stall_ps": totals.get("cpu.stall_ps", 0),
        "switch.cpu_busy_ps": totals.get("switch.cpu_busy_ps", 0),
        "net.packets_sent": totals.get("net.packets_sent", 0),
        "net.retransmits": totals.get("net.retransmits", 0),
        "net.delivered_ratio": _ratio(totals.get("net.packets_delivered", 0),
                                      totals.get("net.packets_sent", 0), 1.0),
        "io.disk_requests": totals.get("io.disk_requests", 0),
        "io.disk_retries": totals.get("io.disk_retries", 0),
        "obs.trace_events": totals.get("obs.trace_events", 0),
        "obs.trace_dropped": totals.get("obs.trace_dropped", 0),
        "faults.injected": totals.get("faults.injected", 0),
        "trace.coverage": _ratio(op_ns / 1e9 - unattributed_s,
                                 op_ns / 1e9, 0.0),
    })
    return out


def write_perfetto(rec: Recorder, path, metadata: dict) -> None:
    """Write the kept spans as Chrome ``trace_event`` JSON (Perfetto)."""
    origin = min((span[2] for span in rec.spans), default=0)
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
               "args": {"name": "simulator host time"}}]
    for span_id, parent, start, end, layer, name in sorted(
            rec.spans, key=lambda s: (s[2], -s[3])):
        events.append({"name": name, "cat": layer, "ph": "X", "pid": 1,
                       "tid": 1, "ts": (start - origin) / 1e3,
                       "dur": (end - start) / 1e3,
                       "args": {"id": span_id, "parent": parent}})
    document = {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": rec.dropped, **metadata}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
