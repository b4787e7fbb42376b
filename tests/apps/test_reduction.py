"""Tests for collective reductions (Table 2, Figures 15/16)."""

import random

import pytest

import repro
from repro.apps.reduction import (
    DISTRIBUTED,
    REDUCE_TO_ALL,
    REDUCE_TO_ONE,
    REDUCTION_HCA,
    VECTOR_BYTES,
    _make_vectors,
    _oracle,
    reduction_sweep,
    run_normal_reduction,
)
from repro.cluster import TopologySpec, build_fabric
from repro.sim import Environment


def _tree(num_hosts):
    return build_fabric(Environment(), TopologySpec("tree", num_hosts),
                        hca_config=REDUCTION_HCA)


def _case(num_hosts, mode, active, **params):
    """One ``repro.run("reduce")`` case; ``run_case`` raises unless the
    hosts hold the oracle result."""
    label = "active" if active else "normal"
    return repro.run("reduce", hosts=num_hosts, mode=mode, cases=(label,),
                     **params).cases[label]


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("num_hosts,vector_bytes", [
    (2, 128), (2, 8192), (5, 4096), (64, 2048), (1024, 128), (1024, 512)])
def test_vectors_are_randrange_draws(num_hosts, vector_bytes, seed):
    """The inlined draw loop gives exactly ``randrange(1 << 16)``'s
    words, so a change in the standard library shows here."""
    rng = random.Random(seed)
    expected = [[rng.randrange(1 << 16) for _ in range(vector_bytes // 4)]
                for _ in range(num_hosts)]
    assert _make_vectors(num_hosts, seed=seed,
                         vector_bytes=vector_bytes) == expected


def test_vector_size_is_paper_parameter():
    assert VECTOR_BYTES == 512


# ----------------------------------------------------------------------
# Functional correctness (Table 2 semantics) — every run checks the
# hosts' result against the oracle and raises on a mismatch.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("p", [2, 8, 16])
@pytest.mark.parametrize("active", [False, True])
def test_reduce_to_one_result_correct(p, active):
    assert _case(p, REDUCE_TO_ONE, active).exec_ps > 0


@pytest.mark.parametrize("active", [False, True])
def test_reduce_to_all_result_correct(active):
    assert _case(8, REDUCE_TO_ALL, active).exec_ps > 0


@pytest.mark.parametrize("active", [False, True])
def test_distributed_reduce_completes(active):
    assert _case(8, DISTRIBUTED, active).exec_ps > 0


@pytest.mark.parametrize("p", [2, 4, 8, 16, 32])
def test_reduce_scatter_slices_are_the_oracle(p):
    """The MST reduce-scatter leaves host i holding slice i of the sum;
    concatenated in host order they are the whole oracle vector."""
    vectors = _make_vectors(p)
    done = run_normal_reduction(_tree(p), vectors, DISTRIBUTED)
    assert done["result"] == _oracle(vectors)


# ----------------------------------------------------------------------
# Latency shapes (Figures 15/16)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", [REDUCE_TO_ONE, DISTRIBUTED])
def test_active_speedup_grows_with_nodes(mode):
    rows = reduction_sweep(mode, node_counts=(4, 16, 64))
    speedups = [row["speedup"] for row in rows]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 2.0


def test_active_beats_normal_at_scale():
    row = reduction_sweep(REDUCE_TO_ONE, node_counts=(64,))[0]
    assert row["speedup"] > 3.0


def test_normal_latency_grows_logarithmically():
    rows = reduction_sweep(REDUCE_TO_ONE, node_counts=(4, 16, 64))
    latencies = [row["normal_us"] for row in rows]
    # log2: 2 -> 4 -> 6 rounds; ratios well below linear scaling (x4).
    assert latencies[1] / latencies[0] < 3.0
    assert latencies[2] / latencies[1] < 2.0


def test_active_latency_nearly_flat():
    rows = reduction_sweep(REDUCE_TO_ONE, node_counts=(8, 64))
    assert rows[1]["active_us"] < rows[0]["active_us"] * 2.0


def test_small_system_no_benefit():
    # With 2 nodes the MST does one round; the switch path adds hops.
    row = reduction_sweep(REDUCE_TO_ONE, node_counts=(2,))[0]
    assert row["speedup"] == pytest.approx(1.0, abs=0.25)


# ----------------------------------------------------------------------
# Tree fabric sanity (integration through the real active switches)
# ----------------------------------------------------------------------
def test_large_reduction_uses_switch_tree():
    tree = _tree(128)
    assert len(tree.levels[0]) == 16       # 16 leaf switches
    assert tree.depth == 3                 # leaves -> level2 -> root
    assert tree.aggregation_root.fan_in == 2
    assert sum(leaf.fan_in for leaf in tree.levels[0]) == 128


def test_single_leaf_reduction():
    case = _case(8, REDUCE_TO_ONE, active=True)
    assert case.extra["fabric_depth"] == 1.0
    assert case.extra["placement_instances"] == 1.0


def test_reduce_to_all_speedup_monotone():
    """The tree broadcast keeps reduce-to-all scaling with node count."""
    rows = reduction_sweep(REDUCE_TO_ALL, node_counts=(8, 32, 128))
    speedups = [row["speedup"] for row in rows]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 5.0


def test_reduce_to_all_every_host_gets_oracle_result():
    from repro.cluster.placement import plan_placement, run_placed_reduction
    vectors = _make_vectors(16)
    fabric = _tree(16)
    done = run_placed_reduction(fabric, plan_placement(fabric, "per_level"),
                                vectors, mode=REDUCE_TO_ALL)
    oracle = _oracle(vectors)
    assert len(done["per_host"]) == 16
    for received in done["per_host"]:
        assert received == oracle


@pytest.mark.parametrize("vector_bytes", [128, 1024, 4096])
def test_multi_region_vectors_still_correct(vector_bytes):
    """Vectors spanning several ATB regions reduce correctly (exercises
    the conflict-backpressure path)."""
    assert _case(8, REDUCE_TO_ONE, active=True,
                 vector_bytes=vector_bytes).exec_ps > 0


def test_vector_size_sweep_speedup_decays():
    from repro.apps.reduction import vector_size_sweep
    rows = vector_size_sweep(num_hosts=16, sizes=(128, 2048))
    assert rows[0]["speedup"] > rows[1]["speedup"]
