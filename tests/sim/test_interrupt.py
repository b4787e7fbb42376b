"""Unit tests for process interruption."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError


def test_interrupt_raises_in_target():
    env = Environment()
    caught = []

    def sleeper(env):
        try:
            yield env.timeout(1000)
        except Interrupt as exc:
            caught.append((env.now, exc.cause))

    def interrupter(env, target):
        yield env.timeout(100)
        target.interrupt(cause="wake up")

    target = env.process(sleeper(env))
    env.process(interrupter(env, target))
    env.run()
    assert caught == [(100, "wake up")]


def test_interrupted_process_can_rewait():
    """After handling the interrupt, the original event still fires."""
    env = Environment()
    log = []

    def sleeper(env):
        wait = env.timeout(1000)
        try:
            yield wait
        except Interrupt:
            log.append(("interrupted", env.now))
        yield wait  # resume waiting on the same event
        log.append(("done", env.now))

    def interrupter(env, target):
        yield env.timeout(300)
        target.interrupt()

    target = env.process(sleeper(env))
    env.process(interrupter(env, target))
    env.run()
    assert log == [("interrupted", 300), ("done", 1000)]


def test_unhandled_interrupt_kills_process():
    env = Environment()

    def sleeper(env):
        yield env.timeout(1000)

    def interrupter(env, target):
        yield env.timeout(10)
        target.interrupt()

    target = env.process(sleeper(env))
    env.process(interrupter(env, target))
    with pytest.raises(Interrupt):
        env.run()


def test_watcher_sees_interrupt_failure():
    env = Environment()

    def sleeper(env):
        yield env.timeout(1000)

    def interrupter(env, target):
        yield env.timeout(10)
        target.interrupt()

    def watcher(env, target):
        try:
            yield target
        except Interrupt:
            return "observed"

    target = env.process(sleeper(env))
    env.process(interrupter(env, target))
    proc = env.process(watcher(env, target))
    assert env.run(until=proc) == "observed"


def test_interrupt_before_the_first_step_fails_the_process_once():
    """An interrupt that lands before a process has run its first step
    detaches the pending start: the process fails with the interrupt,
    a waiter receives it, and the start never resumes the dead
    generator.  The watcher and the interrupter start ahead of their
    target, so they look it up when they run."""
    env = Environment()
    processes, log = {}, []

    def sleeper(env):
        log.append("started")
        yield env.timeout(1000)

    def watcher(env):
        try:
            yield processes["target"]
        except Interrupt as exc:
            log.append(("watcher", env.now, exc.cause))

    def interrupter(env):
        processes["target"].interrupt(cause="early")
        yield env.timeout(5)

    env.process(watcher(env))
    env.process(interrupter(env))
    target = processes["target"] = env.process(sleeper(env))
    env.run()
    assert log == [("watcher", 0, "early")]
    assert not target.is_alive and not target.ok
    assert isinstance(target.value, Interrupt)
    assert env.now == 5


def test_unwatched_interrupt_before_the_first_step_surfaces():
    env = Environment()

    def sleeper(env):
        yield env.timeout(1000)

    target = env.process(sleeper(env))
    target.interrupt(cause="early")
    with pytest.raises(Interrupt):
        env.run()
    assert not target.is_alive


def test_cannot_interrupt_finished_process():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    target = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        target.interrupt()


def test_cannot_interrupt_self():
    env = Environment()
    errors = []

    def selfish(env):
        try:
            env.active_process.interrupt()
        except SimulationError as exc:
            errors.append(str(exc))
        yield env.timeout(1)

    env.process(selfish(env))
    env.run()
    assert errors


def test_interrupt_as_io_timeout_watchdog():
    """The classic pattern: cancel a slow operation after a deadline."""
    env = Environment()
    outcome = []

    def slow_io(env):
        try:
            yield env.timeout(10_000)
            outcome.append("completed")
        except Interrupt:
            outcome.append("cancelled")

    def watchdog(env, target, deadline):
        yield env.timeout(deadline)
        if target.is_alive:
            target.interrupt(cause="deadline")

    io = env.process(slow_io(env))
    env.process(watchdog(env, io, 500))
    env.run()
    assert outcome == ["cancelled"]
    assert env.now == 10_000  # the abandoned timeout still drains
