"""Per-figure experiment definitions (the paper's evaluation section).

Every table and figure of the paper maps to one registered
:class:`Experiment`; running one produces the same rows/series the
paper reports plus a paper-vs-measured comparison.
"""

from __future__ import annotations

from typing import Dict

from ..apps.reduction import DISTRIBUTED, REDUCE_TO_ONE, reduction_sweep
from ..metrics.results import BenchmarkResult
from ..runner.api import run as _run_benchmark, run_many
from ..runner.spec import make_spec
from .registry import Experiment, Shape, bounded, quoted, register


# ----------------------------------------------------------------------
# Table 1: applications and problem sizes
# ----------------------------------------------------------------------
def _run_table1(scale=None):
    from ..workloads import datamation
    return [
        ("MPEG filter", 2_202_640),
        ("HashJoin", "16M x 128M"),
        ("Select", 128 * 1024 * 1024),
        ("Grep", 1_146_880),
        ("Tar", 4 * 1024 * 1024),
        ("Parallel sort", f"{datamation.PAPER_NUM_RECORDS // (1024 * 1024)}M records"),
        ("MD5", 256 * 1024),
        ("Collective Reduction", 512),
    ]


register(Experiment(
    experiment_id="table1",
    title="Table 1: Applications and problem sizes",
    paper={"applications": 8},
    run=_run_table1,
    default_scale=None,
    measured=lambda rows: {"applications": len(rows)},
    tolerance={"applications": quoted("8", "Table 1")},
    shape=(
        Shape("eight applications", len, "==", 8),
        Shape("Select scans 128 MB", lambda rows: dict(rows)["Select"],
              "==", 128 * 1024 * 1024),
    ),
))


# ----------------------------------------------------------------------
# Shared helpers for the four-case figures
# ----------------------------------------------------------------------
def _four_case_metrics(result: BenchmarkResult) -> Dict[str, float]:
    return {
        "normal+pref norm. time": result.normalized_time("normal+pref"),
        "active norm. time": result.normalized_time("active"),
        "active+pref norm. time": result.normalized_time("active+pref"),
        "active speedup (vs normal)": result.active_speedup,
        "active+pref speedup (vs normal+pref)": result.active_pref_speedup,
        "active traffic fraction": result.normalized_traffic("active"),
        "host util normal": result.utilization("normal"),
        "host util normal+pref": result.utilization("normal+pref"),
        "host util active": result.utilization("active"),
        "host util active+pref": result.utilization("active+pref"),
    }


def _exec_spread(*labels):
    """max/min execution time over ``labels`` (1.0 = a tie)."""
    def spread(result: BenchmarkResult) -> float:
        times = [result.case(label).exec_ps for label in labels]
        return max(times) / min(times)
    return spread


# Shape predicates shared by the four-case figures.
def _speedup_in(lo, hi):
    return Shape("active speedup", lambda r: r.active_speedup, "in", (lo, hi))


def _pref_speedup_in(lo, hi):
    return Shape("active+pref speedup", lambda r: r.active_pref_speedup,
                 "in", (lo, hi))


def _traffic(op, bound):
    return Shape("active host traffic", lambda r: r.normalized_traffic("active"),
                 op, bound)


def _active_util_below(bound):
    return Shape("active host utilization", lambda r: r.utilization("active"),
                 "<", bound)


def _normal_pref_time_below(bound):
    return Shape("normal+pref beats normal",
                 lambda r: r.normalized_time("normal+pref"), "<", bound)


_SYNC_ACTIVE = (
    "deviation 1: our synchronous active case pipelines host, switch and "
    "disk as freely as active+pref; the paper's flow control apparently "
    "serializes part of the per-block chain with one request outstanding")

_HASHJOIN_STALLS = (
    "the host stall shares come from our cache model on a synthetic "
    "relation and land below the paper's; the filter still removes "
    "most of the stall")


# ----------------------------------------------------------------------
# Figures 3/4: MPEG filter
# ----------------------------------------------------------------------
register(Experiment(
    experiment_id="fig03_04_mpeg",
    title="Figures 3/4: MPEG-filter performance and breakdown",
    paper={
        "active speedup (vs normal)": 1.23,
        "active+pref speedup (vs normal+pref)": 1.36,
        "active traffic fraction": 0.365,
        "normal / normal+pref": 1.13,
    },
    run=lambda scale=1.0: _run_benchmark("mpeg", scale=scale),
    measured=lambda r: {
        **_four_case_metrics(r),
        "normal / normal+pref": r.speedup("normal", "normal+pref"),
    },
    tolerance={
        "active speedup (vs normal)": quoted("1.23"),
        "active+pref speedup (vs normal+pref)": quoted("1.36"),
        "active traffic fraction": quoted("36.5%"),
        "normal / normal+pref": quoted("1.13"),
    },
    shape=(
        Shape("prefetch speeds up normal",
              lambda r: r.speedup("normal", "normal+pref"), "in", (1.05, 1.25)),
        Shape("active speedup", lambda r: r.active_speedup, ">", 1.15),
        _pref_speedup_in(1.2, 1.5),
        _traffic("in", (0.3, 0.45)),
        Shape("active+pref host busy",
              lambda r: r.case("active+pref").host.utilization, ">", 0.8),
        Shape("active+pref switch CPU busy",
              lambda r: r.case("active+pref").switch_cpus[0].busy_frac,
              ">", 0.4),
    ),
    deviations={
        "active speedup (vs normal)": _SYNC_ACTIVE,
        "active+pref speedup (vs normal+pref)": (
            "within 3 % of the paper; it inherits the smaller prefetch "
            "gain below"),
        "active traffic fraction": (
            "the generator builds the stream from whole frames, so the "
            "I-frame share of host-bound bytes lands just under the "
            "complement of the paper's 63.5 % P-frame share"),
        "normal / normal+pref": (
            "our synchronous normal case waits on I/O for a smaller "
            "share of its run than the paper's, so hiding that wait "
            "buys less"),
    },
))


# ----------------------------------------------------------------------
# Figures 5/6: HashJoin
# ----------------------------------------------------------------------
def _hashjoin_measured(result: BenchmarkResult) -> Dict[str, float]:
    metrics = _four_case_metrics(result)
    npref = result.case("normal+pref")
    apref = result.case("active+pref")
    metrics["normal+pref host stall frac"] = npref.host.stall_frac
    metrics["active+pref host stall frac"] = apref.host.stall_frac
    return metrics


register(Experiment(
    experiment_id="fig05_06_hashjoin",
    title="Figures 5/6: HashJoin performance and breakdown",
    paper={
        "active speedup (vs normal)": 1.10,
        "active+pref speedup (vs normal+pref)": 1.00,
        "normal+pref host stall frac": 0.276,
        "active+pref host stall frac": 0.161,
    },
    run=lambda scale=1 / 16: _run_benchmark("hashjoin", scale=scale),
    measured=_hashjoin_measured,
    default_scale=1 / 16,
    notes=("Paper's 76% traffic reduction counts the S scan only; our "
           "traffic metric also includes R passing through to the host."),
    tolerance={
        "active speedup (vs normal)": quoted("1.10"),
        "active+pref speedup (vs normal+pref)": quoted(
            "1.00", "text: 'performance is the same'"),
        "normal+pref host stall frac": quoted("27.6%"),
        "active+pref host stall frac": quoted("16.1%"),
    },
    shape=(
        _speedup_in(1.0, 1.45),
        _pref_speedup_in(0.95, 1.08),
        Shape("filter cuts the host stall share",
              lambda r: (r.case("active+pref").host.stall_frac
                         / r.case("normal+pref").host.stall_frac), "<", 0.75),
        Shape("normal+pref host stall share",
              lambda r: r.case("normal+pref").host.stall_frac, ">", 0.10),
        _traffic("<", 0.6),
    ),
    deviations={
        "active speedup (vs normal)": _SYNC_ACTIVE,
        "normal+pref host stall frac": _HASHJOIN_STALLS,
        "active+pref host stall frac": _HASHJOIN_STALLS,
    },
))


# ----------------------------------------------------------------------
# Figures 7/8: Select
# ----------------------------------------------------------------------
def _select_measured(result: BenchmarkResult) -> Dict[str, float]:
    metrics = _four_case_metrics(result)
    normal_avg = (result.utilization("normal")
                  + result.utilization("normal+pref")) / 2
    active_avg = (result.utilization("active")
                  + result.utilization("active+pref")) / 2
    metrics["normal/active utilization ratio"] = (
        normal_avg / active_avg if active_avg else float("inf"))
    return metrics


register(Experiment(
    experiment_id="fig07_08_select",
    title="Figures 7/8: Select performance and breakdown",
    paper={
        "active traffic fraction": 0.25,
        "normal/active utilization ratio": 21.0,
        "active+pref speedup (vs normal+pref)": 1.00,
    },
    run=lambda scale=1 / 16: _run_benchmark("select", scale=scale),
    measured=_select_measured,
    default_scale=1 / 16,
    tolerance={
        "active traffic fraction": quoted("25%"),
        "normal/active utilization ratio": quoted("21"),
        "active+pref speedup (vs normal+pref)": quoted(
            "1.00", "text: the other three cases are nearly identical"),
    },
    shape=(
        _normal_pref_time_below(0.95),
        Shape("the other three cases tie",
              _exec_spread("normal+pref", "active", "active+pref"),
              "<", 1.10),
        Shape("normal host works 10-40x harder",
              lambda r: _select_measured(r)["normal/active utilization ratio"],
              "in", (10, 40)),
        _traffic("in", (0.2, 0.3)),
    ),
))


# ----------------------------------------------------------------------
# Figures 9/10: Grep
# ----------------------------------------------------------------------
register(Experiment(
    experiment_id="fig09_10_grep",
    title="Figures 9/10: Grep performance and breakdown",
    paper={
        "active speedup (vs normal)": 1.14,
        "host util active": 0.0,
    },
    run=lambda scale=1.0: _run_benchmark("grep", scale=scale),
    measured=_four_case_metrics,
    tolerance={
        "active speedup (vs normal)": quoted("1.14"),
        "host util active": bounded(0, 0.005, "Figure 9: a bar that reads 0 %"),
    },
    shape=(
        _speedup_in(1.05, 1.35),
        Shape("normal+pref beats active",
              lambda r: (r.case("normal+pref").exec_ps
                         / r.case("active").exec_ps), "<=", 1.0),
        Shape("active+pref is best",
              lambda r: r.case("active+pref").exec_ps / min(
                  c.exec_ps for c in r.cases.values()), "<=", 1.0),
        _active_util_below(0.02),
        _traffic("<", 0.01),
    ),
    deviations={
        "active speedup (vs normal)": _SYNC_ACTIVE,
        "host util active": (
            "the host still issues every read request and pays its OS "
            "cost, a sliver the paper's bar shows as zero"),
    },
))


# ----------------------------------------------------------------------
# Figures 11/12: Tar
# ----------------------------------------------------------------------
register(Experiment(
    experiment_id="fig11_12_tar",
    title="Figures 11/12: Tar performance and breakdown",
    paper={
        "host util active": 0.0,
        "active traffic fraction": 0.01,  # headers only
        "active+pref speedup (vs normal+pref)": 1.00,
    },
    run=lambda scale=1.0: _run_benchmark("tar", scale=scale),
    measured=_four_case_metrics,
    tolerance={
        "host util active": bounded(0, 0.005, "Figure 11: a bar that reads 0 %"),
        "active traffic fraction": bounded(0, 0.01, "text: 'headers only'"),
        "active+pref speedup (vs normal+pref)": quoted(
            "1.00", "text: the other three cases tie"),
    },
    shape=(
        _normal_pref_time_below(0.9),
        Shape("the other three cases tie",
              _exec_spread("normal+pref", "active", "active+pref"),
              "<", 1.12),
        _traffic("<", 0.01),
        _active_util_below(0.01),
        Shape("active host receives nothing",
              lambda r: r.case("active").host_bytes_in, "==", 0),
    ),
))


# ----------------------------------------------------------------------
# Figures 13/14: Parallel sort
# ----------------------------------------------------------------------
def _sort_measured(result: BenchmarkResult) -> Dict[str, float]:
    metrics = _four_case_metrics(result)
    metrics["per-node traffic fraction"] = result.normalized_traffic("active")
    return metrics


register(Experiment(
    experiment_id="fig13_14_sort",
    title="Figures 13/14: Parallel sort performance and breakdown",
    paper={
        "per-node traffic fraction": 0.40,  # p/(3p-2) at p=4
    },
    run=lambda scale=1 / 64: _run_benchmark("sort", scale=scale),
    measured=_sort_measured,
    default_scale=1 / 64,
    tolerance={"per-node traffic fraction": quoted("40%")},
    shape=(
        Shape("traffic off p/(3p-2) at p=4",
              lambda r: abs(r.normalized_traffic("active") - 4 / 10),
              "<=", 0.02),
        _normal_pref_time_below(0.95),
        _active_util_below(0.02),
        _pref_speedup_in(0.9, 1.1),
    ),
))


# ----------------------------------------------------------------------
# Figures 15/16: collective reductions
# ----------------------------------------------------------------------
def _run_reduction(mode):
    def run(scale: float = 1.0):
        counts = (2, 4, 8, 16, 32, 64, 128)
        if scale < 1.0:
            counts = tuple(c for c in counts if c <= max(8, int(128 * scale)))
        return reduction_sweep(mode, node_counts=counts)
    return run


def _reduction_measured(rows):
    return {
        "peak speedup": max(row["speedup"] for row in rows),
        "speedup at max nodes": rows[-1]["speedup"],
    }


def _speedup_at(nodes: int):
    return lambda rows: {r["nodes"]: r["speedup"] for r in rows}[nodes]


def _reduction_shape(*extra):
    """Shape shared by Figs 15 and 16: growth with no dip, and a strong
    win at 128 nodes that beats the 8-node one."""
    return (
        Shape("speedup at 128 nodes", _speedup_at(128), ">", 4.0),
        Shape("128 nodes beat 8",
              lambda rows: _speedup_at(128)(rows) / _speedup_at(8)(rows),
              ">", 1.0),
        Shape("speedup grows with every node count",
              lambda rows: min(b["speedup"] / a["speedup"]
                               for a, b in zip(rows, rows[1:])),
              ">", 1.0),
    ) + extra


register(Experiment(
    experiment_id="fig15_reduce_to_one",
    title="Figure 15: Collective Reduce-to-one latency vs nodes",
    paper={"peak speedup": 5.61},
    run=_run_reduction(REDUCE_TO_ONE),
    measured=_reduction_measured,
    tolerance={"peak speedup": quoted("5.61")},
    shape=_reduction_shape(
        Shape("8 nodes beat 2 within 5 %",
              lambda rows: _speedup_at(8)(rows) / _speedup_at(2)(rows),
              ">", 0.95),
        Shape("little benefit at 2 nodes", _speedup_at(2), "<", 1.5),
    ),
    deviations={"peak speedup": (
        "host messaging is calibrated to 2003-era MPI-over-SAN stacks "
        "(10 us post, 18 us polled receive); the paper's exact cost is "
        "not given, so the peak lands low with the same shape")},
))

register(Experiment(
    experiment_id="fig16_distributed_reduce",
    title="Figure 16: Collective Distributed Reduce latency vs nodes",
    paper={"peak speedup": 5.92},
    run=_run_reduction(DISTRIBUTED),
    measured=_reduction_measured,
    tolerance={"peak speedup": quoted("5.92")},
    shape=_reduction_shape(),
    deviations={
        "peak speedup": (
            "deviation 5: the finalize switch sends all p result slices "
            "itself, so the speedup peaks at 64 hosts, far below the "
            "paper's 5.92 at 128 (fix: scatter the result down the tree)"),
        "speedup grows with every node count": (
            "deviation 5: the slices queue on the root's send unit and "
            "the speedup falls from 64 hosts to 128; the fix scatters "
            "the result down the tree instead"),
    },
))


# ----------------------------------------------------------------------
# Figure 17: MD5 with multiple switch CPUs
# ----------------------------------------------------------------------
def _run_md5(scale: float = 1.0):
    cpus = (1, 2, 4)
    return dict(zip(cpus, run_many([make_spec("md5", scale=scale,
                                              num_switch_cpus=k)
                                    for k in cpus])))


def _md5_measured(results) -> Dict[str, float]:
    return {
        "1cpu active speedup": results[1].active_speedup,
        "4cpu active speedup (no pref)": results[4].active_speedup,
        "4cpu active+pref speedup": results[4].active_pref_speedup,
        "2cpu active speedup (no pref)": results[2].active_speedup,
    }


register(Experiment(
    experiment_id="fig17_md5_multicpu",
    title="Figure 17: MD5 with 1/2/4 switch CPUs",
    paper={
        "1cpu active speedup": 0.5,  # "slower than normal"
        "4cpu active speedup (no pref)": 1.50,
        "4cpu active+pref speedup": 1.18,
    },
    run=_run_md5,
    measured=_md5_measured,
    tolerance={
        "1cpu active speedup": bounded(0, 1, "text: 'slower than normal'"),
        "4cpu active speedup (no pref)": quoted("1.50"),
        "4cpu active+pref speedup": quoted("1.18"),
    },
    shape=(
        Shape("1 CPU: active slower", lambda r: r[1].active_speedup,
              "<", 0.7),
        Shape("1 CPU: active+pref slower", lambda r: r[1].active_pref_speedup,
              "<", 0.7),
        Shape("2 CPUs: active breaks even", lambda r: r[2].active_speedup,
              "in", (0.7, 1.3)),
        Shape("4 CPUs: active speedup", lambda r: r[4].active_speedup,
              ">", 1.3),
        Shape("4 CPUs: active+pref speedup", lambda r: r[4].active_pref_speedup,
              ">", 1.05),
        Shape("more CPUs never hurt",
              lambda r: max(r[4].case("active").exec_ps
                            / r[2].case("active").exec_ps,
                            r[2].case("active").exec_ps
                            / r[1].case("active").exec_ps), "<=", 1.0),
    ),
    deviations={
        "4cpu active speedup (no pref)": _SYNC_ACTIVE,
        "4cpu active+pref speedup": (
            "within 4 % of the paper; the K-chain interleave is "
            "calibrated only to its shape"),
    },
))


# ----------------------------------------------------------------------
# Table 2: reduction semantics (functional, not timed)
# ----------------------------------------------------------------------
def _run_table2(scale=None):
    modes = (REDUCE_TO_ONE, DISTRIBUTED)
    results = run_many([make_spec("reduce", hosts=8, mode=mode)
                        for mode in modes], cases=("active",))
    return {mode: result.cases["active"]
            for mode, result in zip(modes, results)}


register(Experiment(
    experiment_id="table2",
    title="Table 2: Collective reduction semantics",
    paper={"modes verified": 2},
    run=_run_table2,
    default_scale=None,
    measured=lambda results: {"modes verified": float(len(results))},
    tolerance={"modes verified": quoted("2", "Table 2")},
    shape=(
        Shape("both modes ran",
              lambda r: set(r) == {"reduce-to-one", "distributed"}, "==", 1),
        Shape("every mode ran on the switches",
              lambda r: all(x.switch_cpus for x in r.values()), "==", 1),
        Shape("shortest latency (ps)",
              lambda r: min(x.exec_ps for x in r.values()), ">", 0),
    ),
))
