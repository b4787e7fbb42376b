"""Multiprogrammed-server throughput — the paper's concluding claim.

"Even where there is little or no speedup, reductions in host
utilization and system bandwidth requirements allow for other tasks to
be performed concurrently.  Thus, active switches can play a key role
in improving overall throughput in modern multi-programmed servers."

This experiment quantifies that: run the I/O-bound Select scan under
each configuration and measure how much *other* work the host could
have completed in its idle time (a background job at a fixed
cycles-per-operation cost).  The scan's own completion time barely
moves between normal+pref and active+pref — what changes is how much
of the server is left over.
"""

from __future__ import annotations

from typing import Dict, List

from ..cluster.config import CASE_ORDER
from ..runner.api import run
from .registry import Experiment, Shape, quoted, register

#: Background job: operations of 50k host cycles (25 us each).
BACKGROUND_OP_CYCLES = 50_000


def multiprogramming_throughput(scale: float = 1 / 32) -> List[Dict]:
    """Background ops completable during the scan, per configuration."""
    result = run("select", scale=scale)
    rows = []
    for label in CASE_ORDER:
        case = result.case(label)
        idle_ps = case.host.idle_ps
        op_ps = BACKGROUND_OP_CYCLES * 500  # host cycle = 500 ps
        rows.append({
            "case": label,
            "scan_ms": case.exec_ps / 1e9,
            "host_idle_frac": case.host.idle_frac,
            "background_ops": idle_ps // op_ps,
            "bg_ops_per_ms": (idle_ps // op_ps) / (case.exec_ps / 1e9),
        })
    return rows


def _by_case(rows, label: str) -> Dict:
    return {row["case"]: row for row in rows}[label]


def _measured(rows) -> Dict[str, float]:
    by_case = {row["case"]: row for row in rows}
    return {
        "active/normal+pref background ratio": (
            by_case["active+pref"]["background_ops"]
            / max(1, by_case["normal+pref"]["background_ops"])),
        "active+pref idle fraction": by_case["active+pref"]["host_idle_frac"],
        "scan slowdown from offload": (
            by_case["active+pref"]["scan_ms"]
            / by_case["normal+pref"]["scan_ms"]),
    }


register(Experiment(
    experiment_id="ext_multiprogramming",
    title="Extension: multiprogrammed-server throughput (Select)",
    paper={
        # Qualitative claim quantified: the active host frees real
        # capacity at no scan-time cost.
        "scan slowdown from offload": 1.0,
    },
    run=lambda scale=1 / 32: multiprogramming_throughput(scale),
    measured=_measured,
    default_scale=1 / 32,
    notes=("Quantifies the conclusion's multi-programming argument: "
           "idle host time convertible to background work."),
    tolerance={"scan slowdown from offload": quoted(
        "1.0", "conclusion: 'little or no speedup'")},
    shape=(
        Shape("the scan does not slow down",
              lambda rows: _measured(rows)["scan slowdown from offload"],
              "<=", 1.02),
        Shape("background throughput rises",
              lambda rows: (_by_case(rows, "active+pref")["bg_ops_per_ms"]
                            / _by_case(rows, "normal+pref")["bg_ops_per_ms"]),
              ">", 1.10),
        Shape("active host nearly idle",
              lambda rows: _by_case(rows, "active+pref")["host_idle_frac"],
              ">", 0.95),
    ),
))
