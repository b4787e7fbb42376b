"""Differential suite: the admission queue against its reference.

:mod:`reference_admission`, beside this file, is the queue as it stood
on a :class:`~repro.sim.Store`.  Hypothesis draws one program and runs
it on both queues.  A program is a policy (``drop`` or
``backpressure``), a depth from 1 to 4, one to three offerers (each a
list of offers after drawn delays, made through ``try_offer`` then
``offer`` as the service feeder does, or through ``offer`` alone), one
to four takers with drawn hold times, an optional ``close`` at a drawn
time, and interrupts of drawn offerers and takers at drawn times.  The
delays are few and often zero, so offers, grants, interrupts and takes
often share a timestep: a taker interrupted after a grant landed, two
offers racing one free slot, several takers waiting on one entry.

Every resume is logged as ``(now, who, value or exception type)``.
Both runs must log the same resumes and end with the same ``offered``,
``admitted``, ``dropped``, ``queued`` and ``snapshot()``; the queue
under test must schedule exactly one event fewer per admission and per
closing sentinel — the ``Store.put`` events nobody waits on.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import DeadlockError, Environment, Interrupt
from repro.traffic import admission

import reference_admission

#: Few distinct delays, so events often tie.
DELAYS = st.sampled_from((0, 0, 1, 1, 2, 3))
#: One offer: (delay before it, made through try_offer first?).
OFFERS = st.lists(st.tuples(DELAYS, st.booleans()), min_size=1, max_size=6)
PROGRAMS = st.fixed_dictionaries({
    "policy": st.sampled_from(admission.ADMISSION_POLICIES),
    "depth": st.integers(1, 4),
    "offerers": st.lists(OFFERS, min_size=1, max_size=3),
    "takers": st.lists(st.lists(DELAYS, min_size=1, max_size=4),
                       min_size=1, max_size=4),
    "close": st.one_of(st.none(), st.tuples(DELAYS, st.integers(0, 4))),
    # (delay, target): targets index offerers, then takers.
    "interrupts": st.lists(st.tuples(DELAYS, st.integers(0, 6)),
                           max_size=4),
})


def _offer_lean(queue, item, fast):
    if fast:
        admitted = queue.try_offer(item)
        if admitted is not None:
            return admitted
    return (yield from queue.offer(item))


def _offer_reference(queue, item, fast):
    return (yield from queue.offer(item))


def _take_lean(queue):
    return (yield queue.take())


def _take_reference(queue):
    return (yield from queue.take())


LEAN = (admission, _offer_lean, _take_lean)
REFERENCE = (reference_admission, _offer_reference, _take_reference)


def _run(impl, program):
    """Run ``program`` on one queue; returns (log, state, events, sentinels)."""
    module, offer, take = impl
    env = Environment()
    queue = module.AdmissionQueue(env, depth=program["depth"],
                                  policy=program["policy"])
    log, pending = [], set()

    def resumed(name, value):
        log.append((env.now, name, value))

    def interrupted(name):
        pending.discard(name)
        resumed(name, "Interrupt")

    def offerer(name, offers):
        for step, (delay, fast) in enumerate(offers):
            try:
                yield env.timeout(delay)
                admitted = yield from offer(queue, (name, step), fast)
                resumed(name, ("offer", admitted))
            except Interrupt:
                interrupted(name)

    def taker(name, holds):
        taken = 0
        while True:
            try:
                entry = yield from take(queue)
                if entry is module.CLOSED:
                    resumed(name, "CLOSED")
                    return
                resumed(name, ("take", entry))
                yield env.timeout(holds[taken % len(holds)])
                taken += 1
                resumed(name, "held")
            except Interrupt:
                interrupted(name)

    procs = {}
    for i, offers in enumerate(program["offerers"]):
        procs[f"o{i}"] = env.process(offerer(f"o{i}", offers),
                                     name=f"o{i}", daemon=True)
    for i, holds in enumerate(program["takers"]):
        procs[f"t{i}"] = env.process(taker(f"t{i}", holds),
                                     name=f"t{i}", daemon=True)
    names = list(procs)
    sentinels = 0

    def closer(delay, consumers):
        nonlocal sentinels
        yield env.timeout(delay)
        queue.close(consumers)
        sentinels = consumers

    def interrupter():
        for delay, target in program["interrupts"]:
            yield env.timeout(delay)
            name = names[target % len(names)]
            if name not in pending and procs[name].is_alive:
                pending.add(name)
                procs[name].interrupt()

    if program["close"] is not None:
        env.process(closer(*program["close"]), daemon=True)
    env.process(interrupter(), daemon=True)
    env.run()
    state = {
        "now": env.now,
        "counters": (queue.offered, queue.admitted, queue.dropped,
                     queue.queued),
        "snapshot": queue.snapshot(env.now),
        "alive": sorted(name for name, proc in procs.items()
                        if proc.is_alive),
    }
    return log, state, env.event_count, sentinels


def _compare(program):
    log, state, events, sentinels = _run(LEAN, program)
    ref_log, ref_state, ref_events, ref_sentinels = _run(REFERENCE, program)
    assert log == ref_log
    assert state == ref_state
    assert sentinels == ref_sentinels
    assert events == ref_events - state["counters"][1] - sentinels
    return log, state


def _program(policy="drop", depth=1, offerers=(), takers=(), close=None,
             interrupts=()):
    return {"policy": policy, "depth": depth,
            "offerers": [list(o) for o in offerers],
            "takers": [list(t) for t in takers], "close": close,
            "interrupts": list(interrupts)}


#: t0 and t1 wait; o0's offer at t=1 goes to t0, which is interrupted
#: in the same timestep: the entry goes to t1, untaken by t0.
WITHDRAWN_GRANT = _program(depth=2, offerers=[[(1, True)]],
                           takers=[[1], [1]], interrupts=[(1, 1)])
#: t0 waits; two offers land at t=1 on a depth-1 queue.  The first is
#: granted, but still occupies the slot until t0 resumes: the second
#: is dropped.
RACING_OFFERS = _program(offerers=[[(1, True)], [(1, True)]],
                         takers=[[5]])


@given(program=PROGRAMS)
@example(program=WITHDRAWN_GRANT)
@example(program=RACING_OFFERS)
@example(program=_program(policy="backpressure", depth=1,
                          offerers=[[(0, True), (0, False), (0, True)],
                                    [(1, False)]],
                          takers=[[2], [0]], close=(3, 2),
                          interrupts=[(1, 1), (0, 3)]))
@settings(max_examples=300, deadline=None)
def test_admission_matches_the_reference(program):
    _compare(program)


def test_a_withdrawn_grant_goes_to_the_next_taker():
    log, state = _compare(WITHDRAWN_GRANT)
    assert (1, "t0", "Interrupt") in log
    assert (1, "t1", ("take", (1, ("o0", 0)))) in log
    assert state["counters"] == (1, 1, 0, 0)


def test_a_granted_entry_holds_its_slot_until_its_taker_resumes():
    log, state = _compare(RACING_OFFERS)
    assert state["counters"] == (2, 1, 1, 0)
    assert log[:3] == [(1, "o0", ("offer", True)),
                       (1, "o1", ("offer", False)),
                       (1, "t0", ("take", (1, ("o0", 0))))]


def test_a_waiting_taker_is_named_in_the_deadlock_report():
    env = Environment()
    queue = admission.AdmissionQueue(env, depth=2, policy="drop")
    env.process(_take_lean(queue), name="worker")
    with pytest.raises(DeadlockError) as error:
        env.run()
    assert ("worker: waiting on <AdmissionQueue drop depth=2 queued=0 "
            "dropped=0>.take (1 taker(s) waiting)") in str(error.value)
