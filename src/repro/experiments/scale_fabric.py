"""Scale-out aggregation: single switch vs hierarchical placement.

The paper evaluates one active switch; Section 6 argues the design
scales by "organizing the switches logically in a tree" with each leaf
combining its local vectors.  This experiment quantifies that claim on
multi-stage fabrics from 64 to 1024 hosts, comparing three systems at
each size:

* **host_only** — the software MST (binomial) reduction over the same
  fabric: the baseline an unmodified cluster achieves;
* **root_only** — active switches, but one finalize handler at the
  fabric root folds all ``p`` vectors (the single-switch design
  stretched across a fabric; the root serializes everything);
* **per_level** — the paper's hierarchical scheme: leaves fold their
  hosts, every internal level folds its children, the root finalizes.

Expected shape: host_only grows with ``log2(p)`` software rounds at
~28 us each; root_only eliminates the software alpha but its root
serializes ``p`` handler invocations (linear); per_level keeps the
per-switch work bounded by the radix, so latency grows only with tree
depth — the gap over root_only widens with scale.
"""

from __future__ import annotations

from typing import Dict, List

from ..runner.api import run_many
from ..runner.spec import make_spec
from .registry import Experiment, bounded, register

#: Host counts swept (64 .. 1024; scale trims the top end).
HOST_COUNTS = (64, 128, 256, 512, 1024)

#: Each system as the (case, placement) of a ``repro.run("reduce")``
#: point; the host-only MST baseline runs no handler.
SYSTEMS = {"host_only": ("normal", "per_level"),
           "root_only": ("active", "root_only"),
           "per_level": ("active", "per_level")}


def fabric_scale_sweep(scale: float = 1.0) -> List[Dict]:
    """Latency rows for every (hosts, system) point of the sweep.

    ``scale`` trims the host-count range: 1.0 sweeps to 1024 hosts,
    0.25 to 256, etc. — the shape is visible from 256 up.
    """
    top = max(64, int(1024 * scale))
    points = [(num_hosts, system, case, placement)
              for num_hosts in HOST_COUNTS if num_hosts <= top
              for system, (case, placement) in SYSTEMS.items()]
    results = run_many([(make_spec("reduce", hosts=num_hosts,
                                   placement=placement), (case,))
                        for num_hosts, _, case, placement in points])
    rows = []
    for (num_hosts, system, _, _), result in zip(points, results):
        [case] = result.cases.values()
        rows.append({"system": system, "hosts": num_hosts,
                     "depth": int(case.extra["fabric_depth"]),
                     "latency_us": case.exec_ps / 1e6})
    return rows


def _measured(rows) -> Dict[str, float]:
    by_key = {(row["system"], row["hosts"]): row["latency_us"]
              for row in rows}
    top = max(row["hosts"] for row in rows)
    base = 64
    out = {
        "per_level speedup vs host_only @64":
            by_key[("host_only", base)] / by_key[("per_level", base)],
        "per_level speedup vs root_only @top":
            by_key[("root_only", top)] / by_key[("per_level", top)],
        "per_level growth 64->top":
            by_key[("per_level", top)] / by_key[("per_level", base)],
        "root_only growth 64->top":
            by_key[("root_only", top)] / by_key[("root_only", base)],
    }
    return out


register(Experiment(
    experiment_id="ext_fabric_scale",
    title="Extension: scale-out fabrics — hierarchical vs single-point "
          "aggregation (64-1024 hosts)",
    paper={
        # Section 6's qualitative scaling claims, quantified: the
        # hierarchical scheme should beat the software baseline by at
        # least the paper's small-vector reduction gap, and pull away
        # from single-point aggregation as the fabric grows.
        "per_level speedup vs host_only @64": 4.0,
        "per_level growth 64->top": 1.5,
    },
    tolerance={
        "per_level speedup vs host_only @64": bounded(
            4.0, source="design target: at least Fig 15's gap"),
        "per_level growth 64->top": bounded(
            0, 1.5, "design target: latency grows with depth only"),
    },
    run=lambda scale=1.0: fabric_scale_sweep(scale),
    measured=_measured,
    default_scale=1.0,
    notes=("Not a paper figure: extends Section 6's switch-tree sketch "
           "to full multi-stage fabrics with the handler placement "
           "engine; latencies are packet-level simulations with the "
           "vectors really added and oracle-checked."),
))
