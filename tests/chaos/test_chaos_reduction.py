"""Chaos: collective reductions over a lossy fabric.

Every link in the switch tree drops and corrupts packets; the CRC +
NACK/retransmission protocol must hide all of it — the numerically
checked reduction result has to match the fault-free oracle bit for
bit, on both the active (switch-handler) and normal (host MST) paths.
"""

import pytest

from repro.apps.reduction import (
    REDUCTION_HCA,
    _make_vectors,
    _oracle,
    run_normal_reduction,
)
from repro.cluster import TopologySpec, build_fabric
from repro.cluster.placement import plan_placement, run_placed_reduction
from repro.faults import FaultInjector, FaultPlan, LinkFaults
from repro.sim import Environment

pytestmark = pytest.mark.chaos

LOSSY = FaultPlan(link=LinkFaults(drop_rate=0.1, bit_error_rate=0.05))


def _tree(num_hosts, injector=None):
    return build_fabric(Environment(), TopologySpec("tree", num_hosts),
                        hca_config=REDUCTION_HCA, injector=injector)


def _lossy_tree(num_hosts, seed, plan=LOSSY):
    injector = FaultInjector(plan, seed=seed)
    return _tree(num_hosts, injector), injector


def _active(tree, vectors):
    """The in-switch reduction: the per-level plan on the placement
    engine, as ``repro.run("reduce")``'s active case runs it."""
    return run_placed_reduction(tree, plan_placement(tree, "per_level"),
                                vectors)


def _host_retransmits(tree):
    return sum(host.hca.reliability().get("tx_retransmits", 0) +
               host.hca.reliability().get("rx_retransmits", 0)
               for host in tree.hosts)


def test_active_reduction_is_byte_correct_under_link_faults():
    vectors = _make_vectors(16)
    tree, injector = _lossy_tree(16, seed=11)
    assert _active(tree, vectors)["result"] == _oracle(vectors)
    # The fabric really was lossy — recovery did actual work.
    assert injector.total_injected > 0
    snapshot = injector.snapshot()
    assert (snapshot.get("injected_link_drops", 0) +
            snapshot.get("injected_link_corruptions", 0)) > 0


def test_normal_reduction_is_byte_correct_under_link_faults():
    vectors = _make_vectors(8)
    tree, injector = _lossy_tree(8, seed=5)
    assert run_normal_reduction(tree, vectors)["result"] == _oracle(vectors)
    assert injector.total_injected > 0
    assert _host_retransmits(tree) > 0


def test_faults_cost_latency_but_never_bytes():
    vectors = _make_vectors(16)
    clean = _active(_tree(16), vectors)

    # Seed chosen so the schedule puts retransmissions on the critical
    # path (some seeds inject only off-path faults, which cost nothing).
    tree, injector = _lossy_tree(16, seed=5)
    faulty = _active(tree, vectors)
    assert faulty["result"] == clean["result"] == _oracle(vectors)
    assert injector.total_injected > 0
    assert faulty["latency_ps"] > clean["latency_ps"]


def test_same_seed_reproduces_the_same_fault_schedule():
    runs = []
    for _ in range(2):
        vectors = _make_vectors(16)
        tree, injector = _lossy_tree(16, seed=11)
        done = _active(tree, vectors)
        runs.append((done["latency_ps"], injector.fingerprint(),
                     injector.total_injected, tuple(done["result"])))
    assert runs[0] == runs[1]


def test_different_seeds_draw_different_schedules():
    fingerprints = set()
    for seed in (11, 12, 13):
        vectors = _make_vectors(16)
        tree, injector = _lossy_tree(16, seed=seed)
        assert _active(tree, vectors)["result"] == _oracle(vectors)
        fingerprints.add(injector.fingerprint())
    assert len(fingerprints) == 3


def test_plan_seed_reproduces_through_the_tree():
    """A seed carried in the plan itself beats the constructor seed, so
    a preset with a pinned seed is reproducible regardless of caller."""
    plan = FaultPlan(link=LOSSY.link, seed=11)
    results = []
    for constructor_seed in (0, 99):
        vectors = _make_vectors(16)
        tree, injector = _lossy_tree(16, seed=constructor_seed, plan=plan)
        results.append((_active(tree, vectors)["latency_ps"],
                         injector.fingerprint()))
    assert results[0] == results[1]
