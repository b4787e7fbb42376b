"""Reference event kernel: the oracle for the kernel's event order.

This is the kernel as it stood before its hot paths were made lean,
trimmed to what :mod:`tests.sim.test_kernel_differential` drives:
``Environment``, ``Event``, ``Timeout``, ``Process`` with
``interrupt``, ``AllOf``/``AnyOf``, ``Store``, ``Resource`` and
``Container``.  Heap entries are recycled ``[time, priority, eid,
event]`` lists, every event is built through ``Event.__init__`` and
scheduled through ``Environment.schedule``, a process resumes through
``add_callback``, and every store, resource and container decision
goes through its ``_dispatch``/``_grant`` loop.  It keeps the kernel's
order contract in its plainest form: events are processed in
``(time, priority, eid)`` order, eids counting up from 0 in the order
events are scheduled.  The simulator's kernel must log the same
resumes, end in the same state and process no more events.

Diagnostics (the wait-for graph, the watchdog, failure context and
tracing) are not part of the contract and are left out; a drain that
leaves non-daemon processes alive raises :class:`Deadlock`.
"""

from collections import deque
from heapq import heappop, heappush
from itertools import count

from repro.sim.events import Interrupt, SimulationError, StopProcess

Infinity = float("inf")
URGENT = 0
NORMAL = 1
_PENDING = object()


class Deadlock(Exception):
    """The queue drained with non-daemon processes still blocked."""

    def __init__(self, blocked):
        super().__init__(blocked)
        self.blocked = blocked


class Environment:
    def __init__(self):
        self._now = 0
        self._queue = []
        self._eid = count()
        self._free_slots = []
        self._active_process = None
        self._alive_processes = set()
        self._event_count = 0

    @property
    def now(self):
        return self._now

    @property
    def active_process(self):
        return self._active_process

    @property
    def event_count(self):
        return self._event_count

    def schedule(self, event, delay=0, priority=NORMAL):
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        free = self._free_slots
        if free:
            entry = free.pop()
            entry[0] = self._now + int(delay)
            entry[1] = priority
            entry[2] = next(self._eid)
            entry[3] = event
        else:
            entry = [self._now + int(delay), priority, next(self._eid), event]
        heappush(self._queue, entry)

    def run(self, until=None):
        finished = []
        horizon = Infinity
        if isinstance(until, Event):
            until.add_callback(lambda _e: finished.append(True))
        elif until is not None:
            horizon = int(until)
        queue = self._queue
        free = self._free_slots
        while queue and not finished and queue[0][0] <= horizon:
            entry = heappop(queue)
            self._now = entry[0]
            event = entry[3]
            entry[3] = None
            if len(free) < 4096:
                free.append(entry)
            self._event_count += 1
            event._process()
        if until is None:
            blocked = sorted(p.name for p in self._alive_processes
                             if not p.daemon)
            if blocked:
                raise Deadlock(blocked)
            return None
        if isinstance(until, Event):
            if not until.ok:
                raise until.value
            return until.value
        self._now = horizon
        return None

    def event(self):
        return Event(self)

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def process(self, generator, name=None, daemon=False):
        return Process(self, generator, name=name, daemon=daemon)

    def all_of(self, events):
        return AllOf(self, events)

    def any_of(self, events):
        return AnyOf(self, events)


class Event:
    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None

    @property
    def triggered(self):
        return self._value is not _PENDING

    @property
    def processed(self):
        return self.callbacks is None

    @property
    def ok(self):
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self):
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value=None, delay=0):
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, delay)
        return self

    def fail(self, exception, delay=0):
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay)
        return self

    def add_callback(self, callback):
        if self.callbacks is None:
            proxy = Event(self.env)
            proxy.callbacks.append(callback)
            proxy._ok = self._ok
            proxy._value = self._value
            self.env.schedule(proxy, 0)
        else:
            self.callbacks.append(callback)

    def _process(self):
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay)


class Initialize(Event):
    __slots__ = ()

    def __init__(self, env, process):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, 0)


class Process(Event):
    __slots__ = ("_generator", "_target", "name", "daemon")

    def __init__(self, env, generator, name=None, daemon=False):
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.daemon = daemon
        env._alive_processes.add(self)
        self._target = Initialize(env, self)

    @property
    def is_alive(self):
        return self._value is _PENDING

    def interrupt(self, cause=None):
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        withdraw = getattr(target, "withdraw", None)
        if withdraw is not None:
            withdraw()
        trigger = Event(self.env)
        trigger._ok = False
        trigger._value = Interrupt(cause)
        trigger.callbacks.append(self._resume)
        self.env.schedule(trigger, 0, priority=URGENT)

    def _finish(self, ok, value):
        env = self.env
        env._active_process = None
        self._ok = ok
        self._value = value
        env._alive_processes.discard(self)
        env.schedule(self, 0)

    def _resume(self, event):
        env = self.env
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    next_event = self._generator.throw(event._value)
            except (StopIteration, StopProcess) as exc:
                self._finish(True, exc.value)
                return
            except BaseException as exc:
                self._finish(False, exc)
                if not self.callbacks:
                    raise
                return
            if next_event.processed:
                event = next_event
                continue
            self._target = next_event
            next_event.add_callback(self._resume)
            break
        env._active_process = None


class Condition(Event):
    __slots__ = ("events", "_pending_count")

    def __init__(self, env, events):
        super().__init__(env)
        self.events = list(events)
        self._pending_count = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.add_callback(self._check)

    def _collect(self):
        return {index: event._value
                for index, event in enumerate(self.events)
                if event.triggered and event.processed}

    def withdraw(self):
        for event in self.events:
            withdraw = getattr(event, "withdraw", None)
            if withdraw is not None and not event.processed:
                withdraw()


class AllOf(Condition):
    __slots__ = ()

    def _check(self, event):
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending_count -= 1
        if self._pending_count <= 0:
            self.succeed(self._collect())


class AnyOf(Condition):
    __slots__ = ()

    def _check(self, event):
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed(self._collect())


class _BlockingEvent(Event):
    __slots__ = ("owner", "_withdrawn")

    def __init__(self, env):
        super().__init__(env)
        self.owner = env.active_process
        self._withdrawn = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None or not self.triggered:
            self.withdraw()
        return False


class Request(_BlockingEvent):
    __slots__ = ("resource",)

    def __init__(self, resource):
        super().__init__(resource.env)
        self.resource = resource

    def withdraw(self):
        self.resource.cancel(self)

    def __exit__(self, exc_type, exc, tb):
        self.resource.cancel(self)
        return False


class StorePut(_BlockingEvent):
    __slots__ = ("store", "item")

    def __init__(self, store, item):
        super().__init__(store.env)
        self.store = store
        self.item = item

    def withdraw(self):
        if self._withdrawn or self.processed:
            return
        self._withdrawn = True
        if not self.triggered:
            try:
                self.store._putters.remove(self)
            except ValueError:
                pass


class StoreGet(_BlockingEvent):
    __slots__ = ("store",)

    def __init__(self, store):
        super().__init__(store.env)
        self.store = store

    def withdraw(self):
        if self._withdrawn or self.processed:
            return
        self._withdrawn = True
        store = self.store
        if self.triggered:
            store.items.appendleft(self._value)
        else:
            try:
                store._getters.remove(self)
            except ValueError:
                pass
        store._dispatch()


class Store:
    def __init__(self, env, capacity=Infinity, name=None):
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items = deque()
        self._putters = deque()
        self._getters = deque()

    def put(self, item):
        event = StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self):
        event = StoreGet(self)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self):
        progress = True
        while progress:
            progress = False
            while self._putters and len(self.items) < self.capacity:
                put_event = self._putters.popleft()
                self.items.append(put_event.item)
                put_event.succeed()
                progress = True
            while self._getters and self.items:
                self._getters.popleft().succeed(self.items.popleft())
                progress = True


class Resource:
    def __init__(self, env, capacity=1, name=None):
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users = []
        self.queue = deque()

    @property
    def count(self):
        return len(self.users)

    def request(self):
        request = Request(self)
        self.queue.append(request)
        self._grant()
        return request

    def release(self, request):
        try:
            self.users.remove(request)
        except ValueError:
            raise SimulationError("releasing a request that was never granted") from None
        self._grant()

    def cancel(self, request):
        try:
            self.queue.remove(request)
            return
        except ValueError:
            pass
        if any(request is user for user in self.users):
            self.users.remove(request)
            self._grant()

    def _grant(self):
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.popleft()
            self.users.append(request)
            request.succeed(request)


class ContainerPut(_BlockingEvent):
    __slots__ = ("container", "amount")

    def __init__(self, container, amount):
        super().__init__(container.env)
        self.container = container
        self.amount = amount

    def withdraw(self):
        if self._withdrawn or self.processed:
            return
        self._withdrawn = True
        if not self.triggered:
            try:
                self.container._putters.remove(self)
            except ValueError:
                pass
            self.container._dispatch()


class ContainerGet(_BlockingEvent):
    __slots__ = ("container", "amount")

    def __init__(self, container, amount):
        super().__init__(container.env)
        self.container = container
        self.amount = amount

    def withdraw(self):
        if self._withdrawn or self.processed:
            return
        self._withdrawn = True
        container = self.container
        if self.triggered:
            container._level += self.amount
        else:
            try:
                container._getters.remove(self)
            except ValueError:
                pass
        container._dispatch()


class Container:
    def __init__(self, env, capacity=Infinity, init=0, name=None):
        self.env = env
        self.capacity = capacity
        self.name = name
        self._level = init
        self._putters = deque()
        self._getters = deque()

    @property
    def level(self):
        return self._level

    def put(self, amount):
        event = ContainerPut(self, amount)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self, amount):
        event = ContainerGet(self, amount)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self):
        progress = True
        while progress:
            progress = False
            if self._putters:
                put_event = self._putters[0]
                if self._level + put_event.amount <= self.capacity:
                    self._putters.popleft()
                    self._level += put_event.amount
                    put_event.succeed()
                    progress = True
            if self._getters:
                get_event = self._getters[0]
                if get_event.amount <= self._level:
                    self._getters.popleft()
                    self._level -= get_event.amount
                    get_event.succeed()
                    progress = True
