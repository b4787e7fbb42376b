"""Exporters: Chrome trace_event round-trip, validation, CSV."""

import csv
import io
import json

import pytest

from repro.obs import (
    TraceCollector,
    load_chrome_trace,
    to_chrome_trace,
    trace_csv,
    validate_chrome_trace,
    write_chrome_trace,
)


def sample_collector():
    c = TraceCollector()
    c.span("link0", "link.xmit", 1_000_000, 512_000, msg=1, seq=0,
           bytes=528, outcome="ok", attempt=0)
    c.instant("link0", "link.deliver", 1_532_000, msg=1, seq=0, bytes=528)
    c.span("sw0-cpu0", "handler", 1_600_000, 400_000, handler_id=12,
           busy_ps=300_000, stall_ps=50_000)
    c.counter("sim", "event-heap", 2_000_000, 17)
    return c


def test_document_shape_and_metadata():
    doc = to_chrome_trace({"active": sample_collector()})
    assert validate_chrome_trace(doc) == []
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert phases == {"M", "X", "i", "C"}
    # one process per case, one thread per component
    names = [e for e in events if e["ph"] == "M"]
    assert {"process_name", "thread_name", "thread_sort_index"} <= {
        e["name"] for e in names}
    span = next(e for e in events if e["ph"] == "X")
    # float microseconds out front, exact picoseconds in args
    assert span["ts"] == pytest.approx(1.0)
    assert span["dur"] == pytest.approx(0.512)
    assert span["args"]["ts_ps"] == 1_000_000
    assert span["args"]["dur_ps"] == 512_000
    assert doc["otherData"]["schema_version"] == 1


def test_round_trip_is_lossless(tmp_path):
    traces = {"normal": sample_collector(), "active": sample_collector()}
    path = tmp_path / "trace.json"
    write_chrome_trace(path, traces)
    loaded = load_chrome_trace(path)
    assert set(loaded) == {"normal", "active"}
    for label in traces:
        assert list(loaded[label]) == list(traces[label])


def test_single_collector_round_trip_preserves_drops(tmp_path):
    c = TraceCollector(capacity=2)
    for i in range(4):
        c.instant("a", "tick", i)
    path = tmp_path / "trace.json"
    write_chrome_trace(path, c)
    loaded = load_chrome_trace(path)
    (collector,) = loaded.values()
    assert list(collector) == list(c)
    assert collector.dropped == 2


def test_multi_case_round_trip_keeps_drops_and_empty_cases(tmp_path):
    traces = {}
    for label in ("normal", "active"):
        c = TraceCollector(capacity=1)
        for i in range(3):
            c.instant("a", "tick", i)
        traces[label] = c
    traces["idle"] = TraceCollector()
    path = tmp_path / "trace.json"
    document = write_chrome_trace(path, traces)
    assert document["otherData"]["dropped_events"] == 4
    loaded = load_chrome_trace(path)
    assert list(loaded) == ["normal", "active", "idle"]
    for label, collector in traces.items():
        assert list(loaded[label]) == list(collector)
        assert loaded[label].dropped == collector.dropped


def test_validate_rejects_malformed_documents(tmp_path):
    assert validate_chrome_trace({}) != []
    assert validate_chrome_trace({"traceEvents": 3}) != []
    bad_event = {"traceEvents": [{"ph": "X", "name": "n", "pid": "p",
                                  "tid": "t", "ts": "not a number"}]}
    assert any("ts" in problem for problem in
               validate_chrome_trace(bad_event))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad_event))
    with pytest.raises(ValueError):
        load_chrome_trace(path)


def test_csv_has_one_row_per_event_with_json_args():
    traces = {"active": sample_collector()}
    rows = list(csv.DictReader(io.StringIO(trace_csv(traces))))
    assert len(rows) == len(traces["active"].events)
    first = rows[0]
    assert first["case"] == "active"
    assert first["component"] == "link0"
    assert json.loads(first["args"])["outcome"] == "ok"
    assert int(first["ts_ps"]) == 1_000_000
