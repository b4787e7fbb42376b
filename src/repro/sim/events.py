"""Event primitives for the discrete-event kernel.

The design follows the classic generator-process style (as popularised by
simpy): an :class:`Event` is a one-shot occurrence with callbacks, a
:class:`Process` wraps a generator that yields events, and condition
events (:class:`AllOf` / :class:`AnyOf`) compose them.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "StopProcess",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class StopProcess(Exception):
    """Raised inside a process generator to exit early with a value."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process may catch it and continue (e.g. a timeout
    watchdog cancelling a slow I/O path).  A plain event or timeout it
    was waiting on remains pending and can be re-yielded; a *queue*
    wait (``Resource.request``, ``Store.get``/``put``,
    ``Container.get``/``put``) is withdrawn so capacity can never be
    granted to the interrupted waiter — re-issue the operation after
    handling the interrupt.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


_PENDING = object()

#: Scheduling priorities: URGENT events at the same timestamp run before
#: NORMAL ones.  Interrupts are URGENT; every other event is NORMAL.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence in simulated time.

    Life cycle: *pending* -> *triggered* (value set, scheduled on the
    event queue) -> *processed* (callbacks ran).  Events may succeed with
    a value or fail with an exception.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment"):  # noqa: F821 (doc reference)
        self.env = env
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        if delay:
            env.schedule(self, delay)
        else:
            heappush(env._queue, (env._now, NORMAL, next(env._eid), self))
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs immediately via the queue if late."""
        if self.callbacks is None:
            # Already processed: schedule a zero-delay shim so ordering
            # semantics stay consistent.
            proxy = Event(self.env)
            proxy.callbacks.append(callback)
            proxy._ok = self._ok
            proxy._value = self._value
            self.env.schedule(proxy, 0)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        """Run callbacks. Called by the environment only."""
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires a fixed delay after creation."""

    __slots__ = ("delay",)

    def __init__(self, env, delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.delay = delay
        heappush(env._queue,
                 (env._now + int(delay), NORMAL, next(env._eid), self))


class Initialize(Event):
    """Internal event that starts a new process."""

    __slots__ = ()

    def __init__(self, env, process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        heappush(env._queue, (env._now, NORMAL, next(env._eid), self))


class Process(Event):
    """Wraps a generator; the process event fires when the generator ends.

    The generator yields :class:`Event` instances; the process resumes
    when the yielded event is processed, receiving its value (or having
    its exception thrown in).
    """

    __slots__ = ("_generator", "_target", "name", "daemon")

    def __init__(self, env, generator: Generator, name: Optional[str] = None,
                 daemon: bool = False):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process requires a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: Daemon processes (perpetual service loops: link receivers,
        #: switch forwarding, dispatch workers) are expected to outlive
        #: the workload, so the deadlock detector ignores them.
        self.daemon = daemon
        env._alive_processes.add(self)
        # The start is the first wait: an interrupt before it detaches it.
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The process resumes immediately (same timestamp, ahead of
        ordinary events) with the exception raised at its current
        ``yield``.  A plain event or timeout it was waiting on stays
        valid and may be yielded again after handling the interrupt; a
        queue wait (resource request, store/container get or put) is
        *withdrawn* — the waiter leaves the queue, and a grant that
        already landed in this timestep is rolled back — so no capacity
        can leak to a waiter that is no longer listening.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from the current wait so the old event cannot also
        # resume us later.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        # Withdraw queue waits (Request / StoreGet / ContainerPut ...):
        # the waiter leaves the primitive's queue, and an unconsumed
        # same-timestep grant is released back, conserving capacity.
        withdraw = getattr(target, "withdraw", None)
        if withdraw is not None:
            withdraw()
        trigger = Event(self.env)
        trigger._ok = False
        trigger._value = Interrupt(cause)
        trigger.callbacks.append(self._resume)
        self.env.schedule(trigger, 0, priority=URGENT)

    def _finish(self, ok: bool, value: Any) -> None:
        """The generator ended: schedule this process's own event."""
        env = self.env
        env._active_process = None
        self._ok = ok
        self._value = value
        env._alive_processes.discard(self)
        heappush(env._queue, (env._now, NORMAL, next(env._eid), self))

    def _resume(self, event: Event) -> None:
        """Advance the generator with the result of ``event``."""
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    next_event = generator.throw(event._value)
            except (StopIteration, StopProcess) as exc:
                self._finish(True, exc.value)
                return
            except BaseException as exc:
                self._finish(False, exc)
                if not self.callbacks:
                    # Nothing is waiting on this process: surface the error.
                    raise
                return

            if not isinstance(next_event, Event):
                env._active_process = None
                error = SimulationError(
                    f"process {self.name!r} yielded non-event {next_event!r}")
                try:
                    generator.throw(error)
                except BaseException:
                    pass
                env._alive_processes.discard(self)
                raise error

            callbacks = next_event.callbacks
            if callbacks is None:
                # Already processed: loop immediately with its value.
                event = next_event
                continue

            self._target = next_event
            callbacks.append(self._resume)
            break
        env._active_process = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"


class Condition(Event):
    """Base for events composed of several sub-events."""

    __slots__ = ("events", "_pending_count")

    def __init__(self, env, events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        self._pending_count = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.add_callback(self._check)

    def _collect(self) -> dict:
        """Values of all processed sub-events, keyed by listed position."""
        return {
            index: event._value
            for index, event in enumerate(self.events)
            if event.triggered and event.processed
        }

    def withdraw(self) -> None:
        """Withdraw every withdrawable (queue-waiting) sub-event.

        Called when an interrupted process was blocked on this
        condition: pending resource requests and store/container waits
        leave their queues; unconsumed same-timestep grants are rolled
        back.  Plain events and timeouts are left untouched.
        """
        for event in self.events:
            withdraw = getattr(event, "withdraw", None)
            if withdraw is not None and not event.processed:
                withdraw()

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Fires when every sub-event has fired; fails fast on failure."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending_count -= 1
        if self._pending_count <= 0:
            self.succeed(self._collect())


class AnyOf(Condition):
    """Fires as soon as any sub-event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed(self._collect())
