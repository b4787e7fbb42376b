"""Differential suite: the striped array against the per-spindle oracle.

``DiskArray`` prices a striped request in one pass over its spindles;
:mod:`tests.io.per_spindle` prices every spindle's chunk from scratch.
Hypothesis draws the spindle count (1-16), request sizes (including
sizes that are not a multiple of the spindle count, and sizes below
it), sequential, repeated and random offsets, arrival gaps that land
inside a busy arm and after it, reads and writes, fault plans (error
rates, scripted ``error_requests``, ``max_retries`` 0-3) and tracing.
Both sides see the same draws and must agree on every returned
``(started, done)``, every ``DiskError``, every spindle's state after
every request, the fault injectors' records and the trace.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import DiskFaults, FaultInjector, FaultPlan
from repro.io import DiskArray, DiskError
from repro.obs import TraceCollector
from repro.sim import Environment
from repro.sim.units import ms, us

from .per_spindle import ReferenceArray, state

SIZES = st.one_of(st.integers(1, 40), st.integers(1, 1 << 20))
#: Positioning is 8 ms, so short gaps queue behind a busy arm.
GAPS = st.one_of(st.integers(0, us(500)), st.integers(ms(9), ms(40)))
REQUESTS = st.lists(
    st.tuples(st.sampled_from(("sequential", "repeat", "random")),
              st.integers(0, 1 << 30), SIZES, GAPS, st.booleans()),
    min_size=1, max_size=12)
FAULTS = st.one_of(st.none(), st.builds(
    DiskFaults,
    read_error_rate=st.sampled_from((0.0, 0.2, 0.6)),
    write_error_rate=st.sampled_from((0.0, 0.3, 1.0)),
    retry_backoff_ps=st.integers(1, us(800)),
    max_retries=st.integers(0, 3),
    error_requests=st.lists(st.integers(0, 12), max_size=6,
                            unique=True).map(tuple)))


def _issue(array, at_ps, offset, nbytes, write):
    burst = array.write_burst if write else array.read_burst
    try:
        return burst(at_ps, offset, nbytes)
    except DiskError as error:
        return str(error)


def _compare(num_disks, requests, faults=None, seed=0, traced=False,
             preposition=None):
    env = Environment()
    array = DiskArray(env, "d", num_disks=num_disks)
    trace = TraceCollector() if traced else None
    env.trace = TraceCollector() if traced else None
    injectors = (None, None)
    if faults is not None:
        injectors = tuple(FaultInjector(FaultPlan(disk=faults), seed=seed)
                          for _ in range(2))
        array.attach_faults(injectors[0])
    reference = ReferenceArray("d", num_disks, injector=injectors[1],
                               trace=trace)
    if preposition is not None:
        array.position_heads(preposition)
        reference.position_heads(preposition)
    at_ps = offset = end = 0
    outcomes = []
    for kind, random_offset, nbytes, gap, write in requests:
        at_ps += gap
        if kind == "sequential":
            offset = end
        elif kind == "random":
            offset = random_offset
        end = offset + nbytes
        outcome = _issue(array, at_ps, offset, nbytes, write)
        assert outcome == _issue(reference, at_ps, offset, nbytes, write)
        outcomes.append(outcome)
        until_ps = max(s.arm_free for s in reference.spindles) + 1
        assert state(array, until_ps) == state(reference, until_ps)
    if faults is not None:
        ours, theirs = injectors
        assert ours._log == theirs._log
        assert ours._counters == theirs._counters
        assert ours.injected == theirs.injected
    if traced:
        assert env.trace.events == trace.events
    return outcomes


@given(num_disks=st.integers(1, 16), requests=REQUESTS, faults=FAULTS,
       seed=st.integers(0, 3), traced=st.booleans(),
       preposition=st.one_of(st.none(), st.integers(0, 1 << 20)))
@settings(max_examples=200, deadline=None)
def test_array_matches_the_per_spindle_oracle(num_disks, requests, faults,
                                               seed, traced, preposition):
    _compare(num_disks, requests, faults, seed, traced, preposition)


@pytest.mark.parametrize("traced", [False, True])
def test_exhausted_retries_raise_at_the_same_request(traced):
    """Every spindle's draws 1-3 error, so each spindle's second request
    exhausts its two retries: the array raises there, leaving the
    spindles before it done and the ones after it untouched."""
    faults = DiskFaults(error_requests=(1, 2, 3), max_retries=2,
                        retry_backoff_ps=us(100))
    requests = [("sequential", 0, 4096, 0, False)] * 4
    outcomes = _compare(4, requests, faults, traced=traced, preposition=0)
    assert isinstance(outcomes[0], tuple)
    assert outcomes[1:] == [
        f"d-{i}: read of 1024 B at {1024 * (i + 1)} failed after 2 retries"
        for i in range(3)]

