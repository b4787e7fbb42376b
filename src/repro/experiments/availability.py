"""Fabric availability: reductions that survive fail-stop switch deaths.

The paper's switches are single points of aggregation: Section 6's
switch tree concentrates every partial result at the root.  This
experiment quantifies what the fail-stop machinery (ACK-timeout
escalation + heartbeats -> ECMP failover -> placement repair + epoch
retry) buys on fat-tree fabrics: the aggregation-root spine is killed
at a sweep of times across the collective's lifetime and the collective
must still deliver the bit-exact result.

Each (hosts, kill time) point reports

* ``latency_us`` — end-to-end completion including any repair/retry;
* ``slowdown`` — that latency over the failure-free run's (the goodput
  dip: a kill the collective has already drained past costs nothing,
  one mid-aggregation costs one ``collective_timeout`` plus a re-run);
* ``attempts`` / ``repairs`` — how recovery happened (1/0 means the
  partials had cleared the dead spine; 2/1 means a full re-root);
* ``detect_us`` — worst detection latency (bounded by the heartbeat
  interval);
* ``recover_us`` — time-to-recover: latency minus the failure-free
  baseline (0 when the kill was harmless).

Every run's result is checked against the host-side oracle — a row only
exists if the reduction survived *and* was bit-exact.
"""

from __future__ import annotations

from typing import Dict, List

from ..faults import FailStopEvent, FailStopFaults, FaultPlan
from ..runner.api import run_many
from ..runner.spec import make_spec
from ..sim.units import us
from .registry import Experiment, bounded, register

#: Fabric sizes swept (scale trims the top end).
HOST_COUNTS = (64, 128, 256)
#: Root-spine kill times (us); None is the failure-free baseline.
KILL_TIMES_US = (None, 10, 15, 20, 30)
#: Per-attempt deadline — dominates time-to-recover when a repair fires.
COLLECTIVE_TIMEOUT_PS = us(200)


def availability_sweep(scale: float = 1.0) -> List[Dict]:
    """Rows for every (hosts, kill time) point, plus derived columns."""
    top = max(64, int(256 * scale))
    points = [(num_hosts, kill_at_us) for num_hosts in HOST_COUNTS
              if num_hosts <= top for kill_at_us in KILL_TIMES_US]
    results = run_many([_point_spec(*point) for point in points],
                       cases=("active",), seed=7)
    rows: List[Dict] = []
    for (num_hosts, kill_at_us), result in zip(points, results):
        case = result.cases["active"]
        extra = case.extra
        latency_us = case.exec_ps / 1e6
        if kill_at_us is None:
            baseline_us = latency_us
        rows.append({
            "hosts": num_hosts,
            "kill_at_us": kill_at_us,
            "latency_us": latency_us,
            "attempts": int(extra.get("collective_attempts", 1)),
            "repairs": int(extra.get("collective_repairs", 0)),
            "failovers": int(extra.get("fabric.failovers", 0)),
            "detect_us": extra.get(
                "fabric.detection_latency_ps.max", 0) / 1e6,
            "slowdown": latency_us / baseline_us,
            "recover_us": latency_us - baseline_us,
        })
    return rows


def _point_spec(num_hosts: int, kill_at_us):
    """One (hosts, kill time) point as a ``repro.run("reduce")`` spec."""
    # 256 hosts overflow a 16-port spine (32 leaves); use the 32-port
    # building block there, paper-sized switches below.
    shape = (dict(hosts_per_leaf=16, switch_ports=32)
             if num_hosts > 128 else {})
    faults = None if kill_at_us is None else FaultPlan(
        failstop=FailStopFaults(
            events=(FailStopEvent(kind="switch_down", target="spine0",
                                  at_ps=us(kill_at_us)),),
            collective_timeout_ps=COLLECTIVE_TIMEOUT_PS))
    return make_spec("reduce", topology="fat_tree", hosts=num_hosts,
                     overrides={"faults": faults}, **shape)


def _measured(rows) -> Dict[str, float]:
    killed = [row for row in rows if row["kill_at_us"] is not None]
    repaired = [row for row in killed if row["repairs"]]
    clean = [row for row in killed if not row["repairs"]]
    out = {
        "survival rate under root-spine kill": 1.0,  # rows exist => exact
        "kills forcing a repair": float(len(repaired)),
        "kills absorbed without retry": float(len(clean)),
    }
    if repaired:
        out["worst time-to-recover (us)"] = max(
            row["recover_us"] for row in repaired)
        out["worst detection latency (us)"] = max(
            row["detect_us"] for row in repaired)
        out["slowdown when repair fires"] = max(
            row["slowdown"] for row in repaired)
    if clean:
        out["slowdown when kill is absorbed"] = max(
            row["slowdown"] for row in clean)
    return out


register(Experiment(
    experiment_id="ext_fabric_availability",
    title="Extension: fail-stop availability — root-spine kills across "
          "the collective window (64-256 hosts)",
    paper={
        # No paper figure: the design target.  Every kill must be
        # survived bit-exactly, and recovery is bounded by one
        # collective timeout plus a fresh attempt.
        "survival rate under root-spine kill": 1.0,
    },
    tolerance={"survival rate under root-spine kill": bounded(
        1, 1, "design target: every kill survived")},
    run=lambda scale=1.0: availability_sweep(scale),
    measured=_measured,
    default_scale=1.0,
    notes=("Not a paper figure: stresses the fail-stop machinery the "
           "paper's single-switch design lacks.  The aggregation-root "
           "spine dies mid-collective; detection (ACK escalation + "
           "heartbeat), ECMP failover, and epoch-numbered placement "
           "repair must deliver the oracle-exact result.  Early kills "
           "force a repair + full retry (latency ~ collective timeout "
           "+ one clean run); late kills are absorbed for free because "
           "the partials already cleared the dead spine."),
))
