"""Differential suite: the event kernel against its reference.

:mod:`reference_kernel`, beside this file, is the kernel before its
hot paths were made lean: recycled heap slots, every event built
through ``Event.__init__`` and scheduled through
``Environment.schedule``, resumes through ``add_callback``, and every
store, resource and container decision through its dispatch loop.  Hypothesis draws one
program and runs it on both kernels.  A program is several processes
whose steps are timeouts (delays that often tie, 0 included), puts and
gets on bounded and unbounded stores, resource ``with``-blocks,
explicit cancels and releases, container gets and puts, conditions over
timeouts and over processes, joins of other processes, interrupts (one
whose grant landed in the same timestep included, and one that lands
before its target's first step, which fails the target and is thrown
into its joiners) and the zero-delay ``succeed`` of a shared event.  Each process logs ``(now, pid, step, outcome)`` at every
resume.  Both runs must log the same resumes and end at the same
``now``, with the same outcome and the same state in every primitive,
and the simulator's kernel must process no more events than the
reference.
"""

import types

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim as lean_sim
from repro.sim import DeadlockError, Interrupt

import reference_kernel

LEAN = types.SimpleNamespace(
    Environment=lean_sim.Environment, Store=lean_sim.Store,
    Resource=lean_sim.Resource, Container=lean_sim.Container)

#: Store capacities (None: unbounded), resource capacities and
#: container (capacity, initial level) pairs every program shares.
STORES = (1, None)
RESOURCES = (1, 2)
CONTAINERS = ((3, 0), (4, 2))
SHARED_EVENTS = 2
MAX_PROCESSES = 5

#: Few distinct delays, so events often tie.
DELAYS = st.sampled_from((0, 0, 1, 1, 2, 3, 5))
STORE = st.integers(0, len(STORES) - 1)
RESOURCE = st.integers(0, len(RESOURCES) - 1)
CONTAINER = st.integers(0, len(CONTAINERS) - 1)
SHARED = st.integers(0, SHARED_EVENTS - 1)
#: Store steps are drawn more often, so bounded stores fill up.
STEPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("put"), STORE),
    st.tuples(st.just("get"), STORE),
    st.tuples(st.just("put"), STORE),
    st.tuples(st.just("get"), STORE),
    st.tuples(st.just("hold"), RESOURCE, DELAYS),
    st.tuples(st.just("cancel"), RESOURCE, DELAYS),
    st.tuples(st.just("release"), RESOURCE, DELAYS),
    st.tuples(st.just("container_get"), CONTAINER, st.integers(1, 3)),
    st.tuples(st.just("container_put"), CONTAINER, st.integers(1, 3)),
    st.tuples(st.sampled_from(("all_of", "any_of")),
              st.lists(DELAYS, max_size=3)),
    st.tuples(st.sampled_from(("all_of_child", "any_of_child")),
              DELAYS, DELAYS),
    st.tuples(st.just("interrupt"), st.integers(0, MAX_PROCESSES - 1)),
    st.tuples(st.just("join"), st.integers(0, MAX_PROCESSES - 1)),
    st.tuples(st.just("fire"), SHARED),
    st.tuples(st.just("wait"), SHARED),
)
PROGRAMS = st.lists(st.lists(STEPS, min_size=1, max_size=8),
                    min_size=2, max_size=MAX_PROCESSES)
HORIZONS = st.one_of(st.none(), st.integers(0, 12))


def _norm(value):
    """A kernel-independent rendering of a resume's value."""
    if isinstance(value, dict):
        return tuple(sorted((key, _norm(item)) for key, item in value.items()))
    if value is None or isinstance(value, (int, str, tuple)):
        return value
    return type(value).__name__


def _owner(event):
    return event.owner.name if event.owner is not None else None


def _run(kernel, program, until):
    """Run ``program`` on ``kernel``; returns (log, outcome, state, events)."""
    env = kernel.Environment()
    stores = [kernel.Store(env) if capacity is None
              else kernel.Store(env, capacity=capacity) for capacity in STORES]
    resources = [kernel.Resource(env, capacity=c) for c in RESOURCES]
    containers = [kernel.Container(env, capacity=c, init=level)
                  for c, level in CONTAINERS]
    shared = [env.event() for _ in range(SHARED_EVENTS)]
    processes, interrupting, log = [], set(), []

    def resumed(pid, step, value):
        log.append((env.now, pid, step, _norm(value)))

    def child(tag, delay):
        yield env.timeout(delay)
        return tag + ("child",)

    def run_step(pid, step, op):
        kind, tag = op[0], (pid, step)
        if kind == "timeout":
            resumed(pid, step, (yield env.timeout(op[1], value=tag)))
        elif kind == "put":
            resumed(pid, step, (yield stores[op[1]].put(tag)))
        elif kind == "get":
            resumed(pid, step, (yield stores[op[1]].get()))
        elif kind == "hold":
            with resources[op[1]].request() as request:
                resumed(pid, step, (yield request))
                resumed(pid, step, (yield env.timeout(op[2])))
        elif kind == "cancel":
            resource = resources[op[1]]
            request = resource.request()
            resumed(pid, step,
                    (yield env.any_of([request, env.timeout(op[2])])))
            resource.cancel(request)
        elif kind == "release":
            # An interrupt at the first yield withdraws the request.
            resource = resources[op[1]]
            request = resource.request()
            resumed(pid, step, (yield request))
            try:
                resumed(pid, step, (yield env.timeout(op[2])))
            finally:
                resource.release(request)
        elif kind == "container_get":
            resumed(pid, step, (yield containers[op[1]].get(op[2])))
        elif kind == "container_put":
            resumed(pid, step, (yield containers[op[1]].put(op[2])))
        elif kind in ("all_of", "any_of"):
            condition = getattr(env, kind)
            resumed(pid, step, (yield condition(
                [env.timeout(delay, value=tag + (i,))
                 for i, delay in enumerate(op[1])])))
        elif kind in ("all_of_child", "any_of_child"):
            condition = getattr(env, kind[:-len("_child")])
            kid = env.process(child(tag, op[1]), name=f"p{pid}.{step}")
            resumed(pid, step, (yield condition(
                [kid, env.timeout(op[2], value=tag)])))
        elif kind == "interrupt":
            target = op[1] % len(processes)
            if target != pid and target not in interrupting \
                    and processes[target].is_alive:
                interrupting.add(target)
                processes[target].interrupt(tag)
            log.append((env.now, pid, step, "interrupt", target))
        elif kind == "join":
            target = op[1] % len(processes)
            if target != pid:
                resumed(pid, step, (yield processes[target]))
        elif kind == "fire":
            event = shared[op[1]]
            if not event.triggered:
                event.succeed(tag)
            log.append((env.now, pid, step, "fire", op[1]))
        else:  # wait
            resumed(pid, step, (yield shared[op[1]]))

    def body(pid, steps):
        for step, op in enumerate(steps):
            try:
                yield from run_step(pid, step, op)
            except Interrupt as interrupt:
                interrupting.discard(pid)
                log.append((env.now, pid, step, "Interrupt", interrupt.cause))
        return (pid, "done")

    processes.extend(env.process(body(pid, steps), name=f"p{pid}")
                     for pid, steps in enumerate(program))
    try:
        env.run(until=until)
        outcome = None
    except DeadlockError as error:
        outcome = ("deadlock", sorted(p.name for p, _ in error.blocked))
    except reference_kernel.Deadlock as error:
        outcome = ("deadlock", error.blocked)
    except Exception as error:
        outcome = (type(error).__name__,)
    state = {
        "now": env.now,
        "stores": [(list(s.items), [p.item for p in s._putters],
                    [_owner(g) for g in s._getters]) for s in stores],
        "resources": [([_owner(u) for u in r.users],
                       [_owner(q) for q in r.queue]) for r in resources],
        "containers": [(c.level, [p.amount for p in c._putters],
                        [g.amount for g in c._getters]) for c in containers],
        "shared": [(e.triggered, e.processed,
                    _norm(e.value) if e.triggered else None) for e in shared],
        "processes": [(p.is_alive, None if p.is_alive else
                       (p.ok, _norm(p.value))) for p in processes],
    }
    return log, outcome, state, env.event_count


def _compare(program, until=None):
    log, outcome, state, events = _run(LEAN, program, until)
    ref_log, ref_outcome, ref_state, ref_events = _run(
        reference_kernel, program, until)
    assert log == ref_log
    assert outcome == ref_outcome
    assert state == ref_state
    assert events <= ref_events
    return log, outcome, state


@given(program=PROGRAMS, until=HORIZONS)
@settings(max_examples=400, deadline=None)
def test_kernel_matches_the_reference(program, until):
    _compare(program, until)


def test_interrupt_after_a_same_timestep_grant():
    """p0 holds resource 0 until t=2; p1 queues for it at t=1; at t=2
    p0's release grants p1, and p2 interrupts p1 before that grant is
    processed.  The grant is rolled back, so the unit is free again."""
    program = [
        [("hold", 0, 2)],
        [("timeout", 1), ("hold", 0, 1)],
        [("timeout", 1), ("timeout", 1), ("interrupt", 1)],
    ]
    log, outcome, state = _compare(program)
    # p0 resumes (and releases on leaving its with-block) before p2
    # interrupts, and p1 is interrupted instead of resuming granted.
    assert log.index((2, 0, 0, None)) < log.index((2, 2, 2, "interrupt", 1))
    assert (2, 1, 1, "Interrupt", (2, 2)) in log
    assert not any(entry[:3] == (2, 1, 1) and entry[3] == "Request"
                   for entry in log)
    assert outcome is None
    assert state["resources"][0] == ([], [])
