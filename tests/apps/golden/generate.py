"""Write ``reduction.json``: the outputs of the hand-wired switch-tree
reduction that Figures 15/16, Table 2 and the reduction ablations ran
on before the placement engine became the only active-reduction path.

The fixture was generated once, from commit 1285c6b (the last revision
with ``apps/reduction.py``'s own handler install and ``SwitchTree``),
with::

    PYTHONPATH=src python tests/apps/golden/generate.py

The script uses that revision's API, so it does not run on later ones.
The fixture is the oracle ``tests/apps/test_golden_reduction.py`` holds
the placement engine to; regenerating it from a later revision would
compare the engine with itself, so do not.

Distributed reductions appear only at host counts that divide the
vector's word count: at other counts the hand-wired finalize dropped
the words past ``p * (words // p)``, which the placement engine
delivers.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

FIXTURE = Path(__file__).with_name("reduction.json")

#: Lossy links for the fault-injected reductions (the chaos suite's plan).
LOSSY_DROP_RATE = 0.1
LOSSY_BIT_ERROR_RATE = 0.05
LOSSY_SEEDS = (5, 11, 12, 13)
LOSSY_HOSTS = 16

#: Reduce-to-one points off the power-of-two grid: partial leaves and
#: partial upper levels.
ODD_HOST_COUNTS = (1, 3, 5, 12, 20, 100)


def rows_digest(rows) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def figures():
    import repro.experiments as experiments
    out = {}
    for eid in ("fig15_reduce_to_one", "fig16_distributed_reduce"):
        experiment = experiments.get(eid)
        rows = experiment.run(scale=experiment.default_scale)
        out[eid] = {"rows": rows, "sha256": rows_digest(rows)}
    return out


def table2():
    import repro.experiments as experiments
    results = experiments.get("table2").run()
    return {key: {"mode": r.mode, "hosts": r.num_hosts,
                  "latency_ps": r.latency_ps,
                  "result_vector": list(r.result_vector)}
            for key, r in results.items()}


def sweeps():
    from repro.apps.reduction import (DISTRIBUTED, REDUCE_TO_ALL,
                                      REDUCE_TO_ONE, reduction_sweep,
                                      run_reduction_point, vector_size_sweep)
    return {
        "reduce_to_all_sweep": reduction_sweep(REDUCE_TO_ALL,
                                               (2, 8, 16, 32, 128)),
        "reduce_to_one_latency_ps": {
            str(p): run_reduction_point(p, REDUCE_TO_ONE,
                                        active=True).latency_ps
            for p in ODD_HOST_COUNTS},
        "vector_size_sweep": vector_size_sweep(),
        "vector_size_sweep_distributed_16": vector_size_sweep(
            DISTRIBUTED, num_hosts=16),
    }


def ablations():
    from repro.experiments.ablations import (ablate_buffer_count,
                                             ablate_receive_discipline)
    return {"ablate_buffer_count": ablate_buffer_count(),
            "ablate_receive_discipline": ablate_receive_discipline()}


def lossy():
    from repro.apps.reduction import (REDUCE_TO_ONE, REDUCTION_HCA,
                                      _make_vectors, run_active_reduction)
    from repro.cluster.topology import SwitchTree
    from repro.faults import FaultInjector, FaultPlan, LinkFaults
    from repro.sim import Environment

    plan = FaultPlan(link=LinkFaults(drop_rate=LOSSY_DROP_RATE,
                                     bit_error_rate=LOSSY_BIT_ERROR_RATE))
    out = {}
    for seed in LOSSY_SEEDS:
        injector = FaultInjector(plan, seed=seed)
        tree = SwitchTree(Environment(), num_hosts=LOSSY_HOSTS,
                          hosts_per_leaf=8, switch_ports=16,
                          hca_config=REDUCTION_HCA, injector=injector)
        result = run_active_reduction(tree, _make_vectors(LOSSY_HOSTS),
                                      REDUCE_TO_ONE)
        out[str(seed)] = {"latency_ps": result.latency_ps,
                          "fingerprint": injector.fingerprint(),
                          "total_injected": injector.total_injected}
    return out


def main() -> None:
    root = Path(__file__).resolve().parents[3]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    scenarios = {}
    for group in (figures, table2, sweeps, ablations, lossy):
        t0 = time.perf_counter()
        scenarios[group.__name__] = group()
        print(f"{group.__name__}: {time.perf_counter() - t0:.1f}s",
              file=sys.stderr)
    doc = {"source": {"commit": commit}, "scenarios": scenarios}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
