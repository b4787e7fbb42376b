"""Trace exporters: Chrome ``trace_event`` JSON, CSV, and a validating loader.

The Chrome export targets the JSON *object* format (``{"traceEvents":
[...]}``) understood by Perfetto (https://ui.perfetto.dev) and
``chrome://tracing``.  The mapping from the structured schema:

===========  =====================================================
schema       Chrome event
===========  =====================================================
span         ``ph="X"`` complete event, ``ts``/``dur`` in microseconds
instant      ``ph="i"`` with thread scope (``s="t"``)
counter      ``ph="C"`` with ``args={"value": ...}``
component    ``tid`` (one thread track per component, named via
             ``thread_name`` metadata)
case label   ``pid`` (one process per traced case, named via
             ``process_name`` metadata)
===========  =====================================================

Chrome's ``ts`` field is a float in microseconds, which cannot represent
picosecond integers exactly; the exporter therefore also stores the exact
``ts_ps``/``dur_ps`` integers inside each event's ``args``, and
:func:`load_chrome_trace` reconstructs collectors from those — a
write/load round trip is lossless (verified by ``tests/obs``).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List, Mapping, Tuple, Union

from .trace import (
    PHASE_COUNTER,
    PHASE_INSTANT,
    PHASE_SPAN,
    SCHEMA_VERSION,
    TraceCollector,
    TraceEvent,
)

_PS_PER_US = 1_000_000

TraceInput = Union[TraceCollector, Mapping[str, TraceCollector]]


def _as_mapping(traces: TraceInput) -> "Dict[str, TraceCollector]":
    if isinstance(traces, TraceCollector):
        return {"trace": traces}
    return dict(traces)


def to_chrome_trace(traces: TraceInput) -> Dict[str, Any]:
    """Convert collector(s) to a Chrome ``trace_event`` JSON document.

    ``traces`` is either one :class:`TraceCollector` or a mapping of case
    label -> collector (as produced by ``repro.run(trace=True)``); each
    label becomes a Perfetto process, each component a named thread track.
    """
    mapping = _as_mapping(traces)
    events: List[Dict[str, Any]] = []
    for pid, (label, collector) in enumerate(mapping.items()):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
        tids: Dict[str, int] = {}
        for component in collector.components():
            tid = tids.setdefault(component, len(tids))
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": component},
            })
            events.append({
                "ph": "M", "name": "thread_sort_index", "pid": pid,
                "tid": tid, "args": {"sort_index": tid},
            })
        for event in collector:
            out: Dict[str, Any] = {
                "ph": event.phase,
                "name": event.name,
                "cat": event.category,
                "pid": pid,
                "tid": tids[event.component],
                "ts": event.ts_ps / _PS_PER_US,
            }
            args = dict(event.args)
            args["ts_ps"] = event.ts_ps
            if event.phase == PHASE_SPAN:
                out["dur"] = event.dur_ps / _PS_PER_US
                args["dur_ps"] = event.dur_ps
            elif event.phase == PHASE_INSTANT:
                out["s"] = "t"
            out["args"] = args
            events.append(out)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "schema_version": SCHEMA_VERSION,
            "clock": "picoseconds (exact values in args.ts_ps/args.dur_ps)",
            "dropped_events": sum(c.dropped for c in mapping.values()),
            "dropped_by_case": {label: c.dropped
                                for label, c in mapping.items()},
        },
    }


def write_chrome_trace(path: str, traces: TraceInput) -> Dict[str, Any]:
    """Serialise collector(s) to ``path`` as Chrome-trace JSON.

    Returns the document that was written.
    """
    document = to_chrome_trace(traces)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return document


def validate_chrome_trace(document: Any) -> List[str]:
    """Check a parsed document against the exported schema.

    Returns a list of human-readable problems; an empty list means the
    document is a valid Chrome trace as this library emits them (and will
    load in Perfetto).
    """
    errors: List[str] = []
    if not isinstance(document, dict):
        return [f"top level must be an object, got {type(document).__name__}"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]
    other = document.get("otherData", {})
    version = other.get("schema_version") if isinstance(other, dict) else None
    if version != SCHEMA_VERSION:
        errors.append(f"otherData.schema_version is {version!r}, "
                      f"expected {SCHEMA_VERSION}")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "i", "C", "M"):
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in event:
                errors.append(f"{where}: missing {key!r}")
        if phase == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            errors.append(f"{where}: missing numeric ts")
        args = event.get("args")
        if not isinstance(args, dict):
            errors.append(f"{where}: missing args object")
            continue
        if not isinstance(args.get("ts_ps"), int):
            errors.append(f"{where}: args.ts_ps must be an integer")
        if phase == "X":
            if not isinstance(event.get("dur"), (int, float)):
                errors.append(f"{where}: span missing numeric dur")
            if not isinstance(args.get("dur_ps"), int):
                errors.append(f"{where}: span args.dur_ps must be an integer")
        if phase == "C" and not isinstance(args.get("value"), (int, float)):
            errors.append(f"{where}: counter missing numeric args.value")
    return errors


def load_chrome_trace(path: str) -> Dict[str, TraceCollector]:
    """Load a Chrome-trace JSON file written by :func:`write_chrome_trace`.

    Validates the document (raising ``ValueError`` with the problem list on
    failure) and reconstructs the exact collectors — integer picosecond
    timestamps come back from ``args.ts_ps``/``args.dur_ps``, not from the
    rounded microsecond ``ts``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    errors = validate_chrome_trace(document)
    if errors:
        raise ValueError("invalid Chrome trace: " + "; ".join(errors[:5]))

    process_names: Dict[int, str] = {}
    thread_names: Dict[Tuple[int, int], str] = {}
    for event in document["traceEvents"]:
        if event["ph"] != "M":
            continue
        if event["name"] == "process_name":
            process_names[event["pid"]] = event["args"]["name"]
        elif event["name"] == "thread_name":
            thread_names[(event["pid"], event["tid"])] = event["args"]["name"]

    # One collector per case, events or not, in the document's order.
    out = {label: TraceCollector() for label in process_names.values()}
    for event in document["traceEvents"]:
        phase = event["ph"]
        if phase == "M":
            continue
        pid = event["pid"]
        label = process_names.get(pid, f"pid{pid}")
        collector = out.setdefault(label, TraceCollector())
        component = thread_names.get((pid, event["tid"]),
                                     f"tid{event['tid']}")
        args = dict(event["args"])
        ts_ps = args.pop("ts_ps")
        dur_ps = args.pop("dur_ps", 0)
        if phase == PHASE_COUNTER:
            collector.counter(component, event["name"], ts_ps, args["value"])
        elif phase == PHASE_INSTANT:
            collector.instant(component, event["name"], ts_ps, **args)
        else:
            collector.span(component, event["name"], ts_ps, dur_ps, **args)
    other = document.get("otherData", {})
    by_case = other.get("dropped_by_case")
    if by_case is None and len(out) == 1:
        # Written before per-case counts: a lone case owns the total.
        by_case = {next(iter(out)): other.get("dropped_events", 0)}
    for label, dropped in (by_case or {}).items():
        out.setdefault(label, TraceCollector()).dropped = dropped
    return out


_CSV_FIELDS = ("phase", "component", "name", "ts_ps", "dur_ps", "args")


def trace_csv(traces: TraceInput) -> str:
    """Render collector(s) as CSV text.

    Columns: ``case, phase, component, name, ts_ps, dur_ps, args`` with
    ``args`` as a compact JSON object.  Rows are in emit order per case.
    """
    mapping = _as_mapping(traces)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("case",) + _CSV_FIELDS)
    for label, collector in mapping.items():
        for event in collector:
            writer.writerow((
                label, event.phase, event.component, event.name,
                event.ts_ps, event.dur_ps,
                json.dumps(dict(event.args), sort_keys=True),
            ))
    return buf.getvalue()


def write_trace_csv(path: str, traces: TraceInput) -> None:
    """Write :func:`trace_csv` output to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(trace_csv(traces))
