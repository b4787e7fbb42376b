"""Tests for collective reductions (Table 2, Figures 15/16)."""

import pytest

from repro.apps.reduction import (
    DISTRIBUTED,
    REDUCE_TO_ALL,
    REDUCE_TO_ONE,
    VECTOR_BYTES,
    _make_vectors,
    _oracle,
    reduction_sweep,
    run_reduction_point,
)


def test_vector_size_is_paper_parameter():
    assert VECTOR_BYTES == 512


# ----------------------------------------------------------------------
# Functional correctness (Table 2 semantics) — the result vectors are
# checked against the oracle inside run_reduction_point.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("p", [2, 8, 16])
@pytest.mark.parametrize("active", [False, True])
def test_reduce_to_one_result_correct(p, active):
    result = run_reduction_point(p, REDUCE_TO_ONE, active=active)
    vectors = _make_vectors(p)
    assert list(result.result_vector) == _oracle(vectors)


@pytest.mark.parametrize("active", [False, True])
def test_reduce_to_all_result_correct(active):
    result = run_reduction_point(8, REDUCE_TO_ALL, active=active)
    vectors = _make_vectors(8)
    assert list(result.result_vector) == _oracle(vectors)


@pytest.mark.parametrize("active", [False, True])
def test_distributed_reduce_completes(active):
    result = run_reduction_point(8, DISTRIBUTED, active=active)
    assert result.latency_ps > 0


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
    from repro.apps.reduction import _build_tree
    tree = _build_tree(128)
    assert len(tree.levels[0]) == 16       # 16 leaf switches
    assert tree.depth == 3                 # leaves -> level2 -> root
    assert tree.aggregation_root.fan_in == 2
    assert sum(leaf.fan_in for leaf in tree.levels[0]) == 128


def test_single_leaf_reduction():
    result = run_reduction_point(8, REDUCE_TO_ONE, active=True)
    vectors = _make_vectors(8)
    assert list(result.result_vector) == _oracle(vectors)


def test_reduce_to_all_speedup_monotone():
    """The tree broadcast keeps reduce-to-all scaling with node count."""
    rows = reduction_sweep(REDUCE_TO_ALL, node_counts=(8, 32, 128))
    speedups = [row["speedup"] for row in rows]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 5.0


def test_reduce_to_all_every_host_gets_oracle_result():
    from repro.apps.reduction import _build_tree
    from repro.cluster.placement import plan_placement, run_placed_reduction
    vectors = _make_vectors(16)
    fabric = _build_tree(16)
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
    result = run_reduction_point(8, REDUCE_TO_ONE, active=True,
                                 vector_bytes=vector_bytes)
    vectors = _make_vectors(8, vector_bytes=vector_bytes)
    assert list(result.result_vector) == _oracle(vectors)


def test_vector_size_sweep_speedup_decays():
    from repro.apps.reduction import vector_size_sweep
    rows = vector_size_sweep(num_hosts=16, sizes=(128, 2048))
    assert rows[0]["speedup"] > rows[1]["speedup"]
