"""Golden reduction fixtures: the placement engine against the frozen
hand-wired switch-tree reduction.

Figures 15/16, Table 2 and the reduction ablations used to run on a
second implementation of the combine-and-forward handler, wired by hand
onto a ``SwitchTree``.  ``golden/reduction.json`` froze that stack's
outputs — generated once, at commit 1285c6b (the last revision that had
it), by the script ``tests/apps/golden/generate.py`` of commit 26eec5b —
and every scenario re-runs here through ``repro.run("reduce", ...)``
on the placement engine's ``per_level`` plan and must reproduce them
exactly.  Never regenerate the fixture from a later revision: that
would compare the engine with itself.
"""

import json
from pathlib import Path

import pytest

import repro
import repro.experiments as experiments
from repro.apps.reduction import (
    DISTRIBUTED,
    REDUCE_TO_ALL,
    REDUCTION_HCA,
    _make_vectors,
    _oracle,
    reduction_sweep,
    vector_size_sweep,
)
from repro.cluster import TopologySpec, build_fabric
from repro.cluster.placement import plan_placement, run_placed_reduction
from repro.experiments.ablations import (ablate_buffer_count,
                                         ablate_receive_discipline)
from repro.faults import FaultInjector, FaultPlan, LinkFaults
from repro.sim import Environment

ROOT = Path(__file__).resolve().parents[2]
FIXTURE = json.loads(
    (Path(__file__).parent / "golden" / "reduction.json").read_text())
SCENARIOS = FIXTURE["scenarios"]
FIGURES = ("fig15_reduce_to_one", "fig16_distributed_reduce")


def test_fixture_is_the_hand_wired_reference():
    assert FIXTURE["source"]["commit"] == "1285c6b"


@pytest.mark.parametrize("eid", FIGURES)
def test_figure_rows_are_bit_identical(eid):
    experiment = experiments.get(eid)
    rows = experiment.run(scale=experiment.default_scale)
    assert rows == SCENARIOS["figures"][eid]["rows"]


def test_fixture_digests_are_the_benchmark_references():
    reference = json.loads((ROOT / "benchmarks" / "e2e" / "reference"
                            / "fabric_reduce.json").read_text())
    for eid in FIGURES:
        assert SCENARIOS["figures"][eid]["sha256"] == \
            reference["seeds"]["0"][eid]


def test_table2_is_bit_identical():
    results = experiments.get("table2").run()
    # Every run checks the switches' result against the oracle and
    # raises on a mismatch, so the delivered vector is the oracle's.
    oracle = _oracle(_make_vectors(8))
    actual = {mode: {"mode": mode, "hosts": 8, "latency_ps": case.exec_ps,
                     "result_vector": oracle}
              for mode, case in results.items()}
    assert actual == SCENARIOS["table2"]


def test_sweeps_are_bit_identical():
    expected = SCENARIOS["sweeps"]
    assert reduction_sweep(REDUCE_TO_ALL, (2, 8, 16, 32, 128)) \
        == expected["reduce_to_all_sweep"]
    assert {str(p): repro.run("reduce", hosts=p,
                              cases=("active",)).cases["active"].exec_ps
            for p in (1, 3, 5, 12, 20, 100)} \
        == expected["reduce_to_one_latency_ps"]
    assert vector_size_sweep() == expected["vector_size_sweep"]
    assert vector_size_sweep(DISTRIBUTED, num_hosts=16) \
        == expected["vector_size_sweep_distributed_16"]


def test_ablations_are_bit_identical():
    expected = SCENARIOS["ablations"]
    assert ablate_buffer_count() == expected["ablate_buffer_count"]
    assert ablate_receive_discipline() \
        == expected["ablate_receive_discipline"]


@pytest.mark.parametrize("seed", sorted(SCENARIOS["lossy"], key=int))
def test_lossy_fabric_reduction_is_bit_identical(seed):
    plan = FaultPlan(link=LinkFaults(drop_rate=0.1, bit_error_rate=0.05))
    injector = FaultInjector(plan, seed=int(seed))
    fabric = build_fabric(Environment(), TopologySpec("tree", 16),
                          hca_config=REDUCTION_HCA, injector=injector)
    vectors = _make_vectors(16)
    done = run_placed_reduction(fabric, plan_placement(fabric, "per_level"),
                                vectors)
    assert done["result"] == _oracle(vectors)
    assert {"latency_ps": done["latency_ps"],
            "fingerprint": injector.fingerprint(),
            "total_injected": injector.total_injected} \
        == SCENARIOS["lossy"][seed]
