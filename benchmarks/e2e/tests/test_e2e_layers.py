"""Self-time arithmetic and wrapper transparency of the traced run."""

import itertools
from collections import defaultdict

import pytest

import layers
import repro
from repro.apps.base import StreamApp
from repro.sim.core import Environment
from verify import digest


def self_times(spans):
    """Oracle: per-layer self time of a span set, each span's duration
    minus the part its direct children cover.  Spans are ``(id, parent,
    start, end, layer, ...)``; parent 0 is the root.  Every generator
    resume is its own span, so interleaved resumes need no special case:
    a segment's parent is whatever was running when it began."""
    spans = list(spans)
    child = defaultdict(int)
    for span_id, parent, start, end, *_ in spans:
        child[parent] += end - start
    out = defaultdict(int)
    for span_id, parent, start, end, layer, *_ in spans:
        out[layer] += end - start - child[span_id]
    return dict(out)


class FakeClock:
    """A clock the test advances by hand (nanoseconds)."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_self_times_of_nested_spans():
    # op 0..100 > apps 10..90 > mem 20..50 and sim 60..70
    spans = [(1, 0, 0, 100, "op"), (2, 1, 10, 90, "apps"),
             (3, 2, 20, 50, "mem"), (4, 2, 60, 70, "sim")]
    assert self_times(spans) == {
        "op": 20, "apps": 40, "mem": 30, "sim": 10}


def test_self_times_of_interleaved_generator_resumes():
    # A kernel span resumes generator A, then B, then A again; each
    # resume is its own segment, and B's segment calls into mem.
    spans = [(1, 0, 0, 100, "sim"),
             (2, 1, 10, 20, "apps"),      # A, first resume
             (3, 1, 30, 60, "traffic"),   # B
             (4, 3, 40, 50, "mem"),       # B -> mem
             (5, 1, 70, 95, "apps")]      # A, second resume
    assert self_times(spans) == {
        "sim": 35, "apps": 35, "traffic": 20, "mem": 10}


def _drive(rec, clock):
    """Interleave two timed generators under a kernel span, as the DES
    kernel does, advancing the fake clock inside each segment."""

    def gen(work):
        for ns in work:
            clock.advance(ns)
            yield ns

    a = layers.timed_generator(rec, gen([5, 7]), "apps", "a")
    b = layers.timed_generator(rec, gen([11]), "traffic", "b")
    with rec.span("sim", "kernel"):
        for g in (a, b, a, b, a):
            clock.advance(1)  # kernel work between resumes
            next(g, None)
        clock.advance(1)


def test_recorder_matches_span_arithmetic():
    clock = FakeClock()
    rec = layers.Recorder(clock=clock, coarse_ns=0)
    with rec.span("op", "root"):
        clock.advance(2)
        _drive(rec, clock)
    assert dict(rec.self_ns) == self_times(rec.spans)
    assert rec.self_ns["apps"] == 12
    assert rec.self_ns["traffic"] == 11
    assert rec.self_ns["sim"] == 6
    assert rec.self_ns["op"] == 2
    # Five resumes: three of a (the last one finishes it), two of b.
    assert rec.calls["apps"] == 3 and rec.calls["traffic"] == 2
    assert not rec.stack


def test_hot_leaf_spans_are_aggregated_not_kept():
    clock = FakeClock()
    rec = layers.Recorder(clock=clock, coarse_ns=50)
    with rec.span("op", "root"):
        for _ in range(3):
            with rec.span("mem", "leaf"):
                clock.advance(10)
        with rec.span("cluster", "coarse"):
            with rec.span("mem", "leaf"):
                clock.advance(60)
    kept = {(layer, name) for *_, layer, name in rec.spans}
    assert kept == {("op", "root"), ("cluster", "coarse"), ("mem", "leaf")}
    assert len(rec.spans) == 3
    assert rec.self_ns["mem"] == 90 and rec.calls["mem"] == 4


def _small_ops():
    """A few small simulations covering the stream, packet and service
    paths (the traced service point takes the per-block cascade)."""
    grep = repro.make_spec("grep", scale=1 / 32)
    reduce = repro.make_spec("reduce", topology="tree", hosts=16)
    service = repro.ServiceSpec(app="grep", case="active", rate_rps=2000.0,
                                duration_s=0.005)
    ops = []
    for spec, case in itertools.product((grep, reduce),
                                        ("normal", "active+pref")):
        app = spec.build()
        config = repro.runner.cell_config(
            repro.runner.Cell(spec=spec, case=case), app)
        ops.append(lambda app=app, config=config: app.run_case(config))
    ops.append(lambda: repro.serve(service))
    ops.append(lambda: repro.serve(service, trace=repro.TraceCollector()))
    return ops


def test_wrapped_runs_are_byte_identical():
    ops = _small_ops()
    plain = [digest(op()) for op in ops]
    rec = layers.Recorder()
    with layers.instrument(rec):
        with rec.span(layers.OP, "cells"):
            wrapped = [digest(op()) for op in ops]
    assert wrapped == plain
    for layer in ("apps", "cluster", "mem", "net", "sim", "switch",
                  "traffic"):
        assert rec.calls[layer] > 0, layer
    assert not rec.stack


def test_instrument_restores_every_patch():
    before = (StreamApp.run_case, Environment.process, repro.serve,
              repro.runner.cell_config)
    with pytest.raises(RuntimeError):
        with layers.instrument(layers.Recorder()):
            assert StreamApp.run_case is not before[0]
            assert repro.serve is not before[2]
            raise RuntimeError("boom")
    assert (StreamApp.run_case, Environment.process, repro.serve,
            repro.runner.cell_config) == before
