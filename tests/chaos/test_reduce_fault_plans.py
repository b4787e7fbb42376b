"""Property: a placed reduce under random fault plans ends correct or typed.

Hypothesis draws fault plans for 16-host ``tree`` and ``fat_tree``
reduces: link drop and bit-error rates with a retry budget (64) no
drawn plan exhausts, handler crash rates up to 0.1 with a varied
quarantine threshold, every placement policy, and the seed.  Every run
must deliver the oracle vector or raise :class:`CollectiveTimeout` —
never a ``DispatchError``, a ``DeadlockError`` or a wrong answer — and
a rerun with the same plan and seed must give the same outcome.

Vectors are the reduce app's one-packet 512 B default: a 16-way
``root_only`` combine of multi-packet vectors can exhaust the root's
data buffers and deadlock with no handler fault at all, which is a
separate defect.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.apps.reduction import REDUCTION_HCA, _make_vectors, _oracle
from repro.cluster.fabric import TopologySpec, build_fabric
from repro.cluster.placement import (PLACEMENT_POLICIES, CollectiveTimeout,
                                     plan_placement, run_placed_reduction)
from repro.faults import FaultInjector, FaultPlan, HandlerFaults, LinkFaults
from repro.sim import Environment

pytestmark = pytest.mark.chaos

HOSTS = 16

rates = st.floats(min_value=0.0, max_value=0.05)

fault_plans = st.builds(
    FaultPlan,
    link=st.builds(LinkFaults, drop_rate=rates, bit_error_rate=rates,
                   max_retries=st.just(64)),
    handler=st.builds(HandlerFaults,
                      crash_rate=st.floats(min_value=0.0, max_value=0.1),
                      quarantine_threshold=st.integers(1, 3)),
)


def _reduce(kind, placement, plan, seed):
    """``("ok", done)`` with the oracle checked, or ``("timeout", msg)``."""
    env = Environment()
    fabric = build_fabric(env, TopologySpec(kind=kind, num_hosts=HOSTS),
                          hca_config=REDUCTION_HCA,
                          injector=FaultInjector(plan, seed=seed))
    vectors = _make_vectors(HOSTS)
    try:
        done = run_placed_reduction(fabric, plan_placement(fabric, placement),
                                    vectors)
    except CollectiveTimeout as exc:
        return "timeout", str(exc)
    assert done["result"] == _oracle(vectors)
    return "ok", done


@pytest.mark.parametrize("kind", ["tree", "fat_tree"])
@settings(max_examples=40, deadline=None)
@given(plan=fault_plans, placement=st.sampled_from(PLACEMENT_POLICIES),
       seed=st.integers(min_value=0, max_value=2**16))
@example(plan=FaultPlan(handler=HandlerFaults(crash_rate=0.05)),
         placement="per_level", seed=0)
def test_reduce_ends_in_the_oracle_or_a_typed_timeout(kind, plan, placement,
                                                      seed):
    outcome = _reduce(kind, placement, plan, seed)
    assert _reduce(kind, placement, plan, seed) == outcome


@pytest.mark.parametrize("seed", [0, 5])
def test_crashing_reduce_through_the_front_door(seed):
    """Seeds whose crashes quarantine a combine handler: the next
    attempt's fresh install lifts the quarantine, the third attempt
    completes, and the app checks the oracle itself."""
    result = repro.run("reduce", topology="tree", hosts=HOSTS,
                       cases=("active",),
                       overrides={"seed": seed, "faults": FaultPlan(
                           handler=HandlerFaults(crash_rate=0.05))})
    assert result.cases["active"].extra["collective_attempts"] == 3.0
