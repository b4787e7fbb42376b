"""Open-loop service SLO: saturation knees with and without offload.

The paper evaluates closed-loop batch jobs; the north star asks the
serving question — how much open-loop traffic can a configuration
sustain under a tail-latency SLO?  This experiment probes offered load
(Poisson arrivals over 64 Zipf-keyed client streams of grep-as-a-
service requests) through the HCA admission queue into the simulated
cluster, for ``normal`` vs ``active`` handler placement on a single
switch and on a 16-host fat tree.

Storage uses the ``service_2003`` preset (a 16-spindle stripe) so the
knee lands on the *CPU* axis: in the ``normal`` case every block
crosses the host downlink and the host CPU scans it; in the ``active``
case four embedded switch CPUs run the grep handler and only matching
bytes reach the host.  Per configuration the search locates the
largest offered rate whose aggregate p99 stays under the SLO with no
drops and goodput tracking offered load (``max_sustainable_rps``), and
the first rate that breaks (``knee_rps``).

The knee comes from the adaptive search
(:func:`repro.traffic.find_knee`): bisection over the 16-point rate
grid costs at most 5 service simulations per configuration instead of
16 — ≥3x fewer.  The exhaustive ``sweep_offered_load(spec,
rates).knee()`` is its reference (the CI sweep-smoke step and the bench
``sweep:*`` cells assert both return the same knee).

Deterministic end to end: arrival schedules are pure functions of the
seed, and every path — adaptive, exhaustive sweep, cache-restored —
evaluates rate points through the identical simulation.
"""

from __future__ import annotations

from typing import Dict, List

from ..traffic import ServiceSpec, find_knee
from .registry import Experiment, register

#: Offered-load grid (requests/s); scale trims the top end.  16 points
#: at 2 kRPS resolution: the adaptive search bisects the sustained-
#: prefix boundary in ⌈log2(17)⌉ = 5 probes.
RATES = tuple(2000.0 * step for step in range(1, 17))

#: Tail-latency objective: aggregate p99 under 1 ms.
SLO_MS = 1.0

#: (topology kind, fabric hosts) points; host 0 serves, the rest are
#: client-facing ports.  The 1024-host tree rides the burst engine
#: (docs/scaling.md) and shares its fabric hop walk + built app across
#: every probe through the template caches (docs/performance.md).
TOPOLOGIES = (("single", 1), ("fat_tree", 16), ("tree", 1024))


def _base_spec(case: str, topology: str, hosts: int) -> ServiceSpec:
    return ServiceSpec(
        app="grep", case=case, arrival="poisson",
        duration_s=0.02, num_streams=64, num_keys=256,
        depth=128, policy="drop", workers=32,
        topology=topology, hosts=hosts,
        preset="service_2003",
        overrides=(("num_switch_cpus", 4),),
        seed=7, slo_ms=SLO_MS)


def service_slo_sweep(scale: float = 1.0, cache=None) -> List[Dict]:
    """One row per (topology, case): the knee under the SLO.

    Each row records ``sims`` — the service simulations that
    configuration's adaptive knee search cost — so the ≥3x saving over
    the exhaustive grid is visible in the artifact itself.
    """
    top = max(RATES[0], scale * RATES[-1])
    rates = [rate for rate in RATES if rate <= top]
    rows: List[Dict] = []
    for topology, hosts in TOPOLOGIES:
        for case in ("normal", "active"):
            spec = _base_spec(case, topology, hosts)
            search = find_knee(spec, rates, cache=cache)
            knee = search.knee()
            rows.append({
                "topology": topology,
                "case": case,
                "max_rps": knee["max_sustainable_rps"] or 0.0,
                "goodput": knee["goodput_rps"] or 0.0,
                "p99_us": knee["p99_us"] or 0.0,
                "knee_rps": knee["knee_rps"] or 0.0,
                "sims": knee["sims"],
            })
    return rows


def _measured(rows) -> Dict[str, float]:
    out: Dict[str, float] = {}
    by_key = {(row["topology"], row["case"]): row for row in rows}
    for (topology, case), row in sorted(by_key.items()):
        out[f"{topology}/{case} max sustainable RPS"] = row["max_rps"]
    for topology, _ in TOPOLOGIES:
        normal = by_key.get((topology, "normal"))
        active = by_key.get((topology, "active"))
        if normal and active and normal["max_rps"]:
            out[f"{topology} active/normal capacity ratio"] = (
                active["max_rps"] / normal["max_rps"])
    return out


register(Experiment(
    experiment_id="ext_service_slo",
    title="Extension: open-loop service SLO — saturation knee and max "
          "sustainable RPS, normal vs active placement",
    paper={
        # No paper figure: the design target.  Handler offload must buy
        # measurable serving capacity under the same 1 ms p99 SLO.
        "single active/normal capacity ratio": 1.5,
    },
    run=lambda scale=1.0: service_slo_sweep(scale),
    measured=_measured,
    default_scale=1.0,
    notes=("Not a paper figure: the paper's batch benchmarks recast as "
           "open-loop service traffic (Poisson arrivals, Zipf keys, HCA "
           "admission queue).  With a 16-spindle stripe the knee is "
           "CPU-bound: the normal case saturates the host CPU scanning "
           "whole blocks, the active case fans the grep handler across "
           "four switch CPUs and ships only matches — sustaining ~50% "
           "more offered load under the same 1 ms p99 SLO on the "
           "single switch, the 16-host fat tree, and the 1024-host "
           "tree fabric.  Knees located by adaptive bisection "
           "(<=5 sims per configuration on the 16-point grid)."),
))
