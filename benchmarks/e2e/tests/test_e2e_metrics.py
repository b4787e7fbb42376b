"""BENCHMARK.json and the metrics the benchmark computes agree."""

import re

import layers
import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _computed_per_layer():
    empty = {"app_hits": 0, "app_misses": 0}
    names = set(layers.layer_metrics(layers.Recorder(), {}, 1))
    names |= set(run._output_counters({}, empty, empty))
    return names | {"trace.overhead_x"}


def test_every_metric_name_is_well_formed():
    declaration = run.load_declaration()
    declared = declaration["end_to_end"] + declaration["per_layer"]
    computed = _computed_per_layer() | {
        "wall_s", "wall_rel", "setup_s", "peak_rss_mb", "paper_err_pct",
        "trace_overhead_x", "failed_frac"}
    for name in [m["name"] for m in declared] + sorted(computed):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for metric in declared:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_declaration_matches_the_benchmark():
    declaration = run.load_declaration()
    assert [w["name"] for w in declaration["workloads"]] == list(WORKLOADS)
    raw = {"pass_s": [2.0, 3.0], "rel": [1.0, 1.5], "build_s": [1.0],
           "peak_rss_mb": 50.0}
    assert {m["name"] for m in declaration["end_to_end"]} == set(
        run.end_to_end(raw, 0.5))
    assert {m["name"] for m in declaration["per_layer"]} <= \
        _computed_per_layer()
    bounds = {m["name"]: m["bound"] for m in declaration["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
