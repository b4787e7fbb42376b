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

While its spindles move in lockstep the array prices an evenly split
request once for all of them, so a second draw mostly asks for ``k * n``
bytes: runs of lockstep requests, left by an uneven request or a fault
plan and rejoined once the spindles agree again, with the spindles'
state compared after every request or only at the end.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ReadStream, System
from repro.faults import DiskFaults, FaultInjector, FaultPlan
from repro.io import DiskArray, DiskError, DiskStats
from repro.obs import TraceCollector
from repro.sim import Environment
from repro.sim.units import ms, us

from .per_spindle import ReferenceArray, state

SIZES = st.one_of(st.integers(1, 40), st.integers(1, 1 << 20))
#: Positioning is 8 ms, so short gaps queue behind a busy arm.
GAPS = st.one_of(st.integers(0, us(500)), st.integers(ms(9), ms(40)))


def _requests(sizes, max_size=12):
    return st.lists(
        st.tuples(st.sampled_from(("sequential", "repeat", "random")),
                  st.integers(0, 1 << 30), sizes, GAPS, st.booleans()),
        min_size=1, max_size=max_size)


REQUESTS = _requests(SIZES)
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
             preposition=None, check_every=True, paths=None):
    """Run ``requests`` on both sides; returns every outcome.  ``paths``,
    when given, collects whether each request was priced in lockstep."""
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
        if paths is not None:
            paths.append(array._lockstep and nbytes % num_disks == 0)
        outcome = _issue(array, at_ps, offset, nbytes, write)
        assert outcome == _issue(reference, at_ps, offset, nbytes, write)
        outcomes.append(outcome)
        if check_every:
            _check_state(array, reference)
    _check_state(array, reference)
    if faults is not None:
        ours, theirs = injectors
        assert ours._log == theirs._log
        assert ours._counters == theirs._counters
        assert ours.injected == theirs.injected
    if traced:
        assert env.trace.events == trace.events
    return outcomes


def _check_state(array, reference):
    until_ps = max(s.arm_free for s in reference.spindles) + 1
    assert state(array, until_ps) == state(reference, until_ps)


@st.composite
def striped_programs(draw):
    """A spindle count and requests that are mostly ``k * n`` bytes."""
    n = draw(st.integers(1, 16))
    sizes = st.one_of(st.integers(1, 64).map(lambda k: k * n),
                      st.integers(1, 1 << 14).map(lambda k: k * n),
                      SIZES)
    return n, draw(_requests(sizes, max_size=16))


@given(num_disks=st.integers(1, 16), requests=REQUESTS, faults=FAULTS,
       seed=st.integers(0, 3), traced=st.booleans(),
       preposition=st.one_of(st.none(), st.integers(0, 1 << 20)))
@settings(max_examples=200, deadline=None)
def test_array_matches_the_per_spindle_oracle(num_disks, requests, faults,
                                               seed, traced, preposition):
    _compare(num_disks, requests, faults, seed, traced, preposition)


@given(program=striped_programs(), faults=FAULTS, seed=st.integers(0, 3),
       traced=st.booleans(), check_every=st.booleans(),
       preposition=st.one_of(st.none(), st.integers(0, 1 << 20)))
@settings(max_examples=200, deadline=None)
def test_lockstep_runs_match_the_per_spindle_oracle(program, faults, seed,
                                                    traced, check_every,
                                                    preposition):
    num_disks, requests = program
    _compare(num_disks, requests, faults, seed, traced, preposition,
             check_every)


#: Gaps longer than a request, so every arm is free at the next one.
IDLE = ms(20)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("requests, expected", [
    # 4097 B: three spindles move 1025 B, the fourth 1022 B, so their
    # arms disagree until an even request finds them all idle.
    ([("sequential", 0, 4096, 0, False), ("sequential", 0, 4097, IDLE, False),
      ("sequential", 0, 4096, IDLE, False), ("sequential", 0, 4096, IDLE, True),
      ("sequential", 0, 8192, IDLE, False)],
     [True, False, False, True, True]),
    # 3 B leaves the fourth spindle's head behind: the next request
    # repositions only that spindle, the one after finds them agreeing.
    ([("sequential", 0, 4096, 0, True), ("random", 1 << 20, 3, 0, False),
      ("sequential", 0, 4096, IDLE, False), ("sequential", 0, 4096, IDLE, False),
      ("sequential", 0, 4096, 0, False)],
     [True, False, False, False, True]),
])
def test_an_uneven_request_leaves_lockstep_until_the_spindles_agree(
        requests, expected, traced):
    paths = []
    _compare(4, requests, traced=traced, check_every=False, paths=paths)
    assert paths == expected


@pytest.mark.parametrize("drive", ["access_burst", "position_head",
                                   "attach_faults"])
def test_driving_a_spindle_on_its_own_settles_and_leaves_lockstep(drive):
    env = Environment()
    array = DiskArray(env, "d", num_disks=4)
    reference = ReferenceArray("d", 4)
    at_ps = 0
    for offset in range(0, 4 * 8192, 8192):
        at_ps += us(100)
        assert array.read_burst(at_ps, offset, 8192) == \
            reference.read_burst(at_ps, offset, 8192)
    assert array._pending.requests == 4  # still waiting on the array
    disk, spindle = array.disks[2], reference.spindles[2]
    if drive == "access_burst":
        assert disk.access_burst(at_ps, 0, 512, write=True) == \
            spindle.access(at_ps, 0, 512, 512, write=True)
    elif drive == "position_head":
        disk.position_head(77)
        spindle.head = 77
    else:
        disk.attach_faults(FaultInjector(FaultPlan(), seed=0))
    assert not array._lockstep
    for offset in (32768, 40960, 49152):
        at_ps += ms(20)
        assert array.read_burst(at_ps, offset, 8192) == \
            reference.read_burst(at_ps, offset, 8192)
    _check_state(array, reference)
    assert array._lockstep  # every spindle agrees again


def test_registry_probes_read_settled_spindle_counters():
    """After a lockstep stream every spindle's counters still wait on
    the array; the ``disk.*`` probes must read what each spindle's
    ``stats`` reads once they are settled."""
    system = System(ClusterConfig())
    stream = ReadStream(system, system.host, total_bytes=16 * 65536,
                        request_bytes=65536, depth=2, warm_start=True)

    def consumer(env):
        for _ in range(stream.num_blocks):
            arrival = yield from stream.next_block()
            yield from stream.done_with(arrival)

    system.env.run(until=system.env.process(consumer(system.env)))
    array = system.storage.disks
    assert array._lockstep and array._pending.requests == 16
    snapshot = system.metrics.snapshot("disk")
    expected = {}
    for disk in array.disks:
        for field in fields(DiskStats):
            expected[f"disk.{disk.name}.{field.name}"] = \
                getattr(disk.stats, field.name)
        expected[f"disk.{disk.name}.utilization"] = disk.utilization()
    assert snapshot == expected
    assert snapshot[f"disk.{array.disks[0].name}.requests"] == 16


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

