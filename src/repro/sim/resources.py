"""Shared-resource primitives built on the event kernel.

* :class:`Store` — FIFO queue of items with optional capacity (used for
  switch output queues, mailbox-style message delivery).
* :class:`Resource` — counted resource with FIFO waiters (used for switch
  CPUs, the SCSI bus, disk arms).
* :class:`Container` — bulk token pool (used for credit-based link flow
  control and data-buffer accounting).

Every blocking operation returns a *withdrawable* event that is also a
context manager, so holders can never leak capacity:

* ``Resource.request()`` — ``with resource.request() as req: yield req``
  releases on exit, whether the block completes, raises, or is
  interrupted mid-wait (a grant that landed in the same timestep is
  released; a queued request is withdrawn).
* ``Store.get()/put()`` and ``Container.get()/put()`` — ``with`` exits
  on an exception withdraw a still-pending wait; an unconsumed
  same-timestep grant is rolled back (the item returns to the store
  head, the tokens to the pool).

:meth:`Process.interrupt` calls the same ``withdraw()`` hook on
whatever the target was blocked on, so interrupting a waiter conserves
items, tokens, and capacity by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Environment, Infinity
from .events import _PENDING, Event, SimulationError

__all__ = [
    "Store",
    "Resource",
    "Container",
    "Request",
    "StoreGet",
    "StorePut",
    "ContainerGet",
    "ContainerPut",
]


def _owner_name(event: Event) -> str:
    owner = getattr(event, "owner", None)
    return getattr(owner, "name", None) or "<no process>"


class _BlockingEvent(Event):
    """Base for queue-waiting events: withdrawable, context-managed.

    Records ``owner`` — the process active when the wait was created —
    for deadlock diagnostics (who holds a resource, who queues on it).
    """

    __slots__ = ("owner", "_withdrawn")

    def __init__(self, env: Environment):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.owner = env._active_process
        self._withdrawn = False

    def withdraw(self) -> None:
        """Leave the wait queue; roll back an unconsumed grant."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # On an exception (including Interrupt thrown at the yield), a
        # wait that never delivered its value is withdrawn.  A value
        # the process already consumed is its own responsibility.
        if exc_type is not None or not self.triggered:
            self.withdraw()
        return False


class Request(_BlockingEvent):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager: ``with resource.request() as req``
    guarantees the claim is cancelled on exit — released if it was
    granted (even in the same timestep), withdrawn from the wait queue
    if it was still pending, and a no-op if already released.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource

    def withdraw(self) -> None:
        self.resource.cancel(self)

    def __exit__(self, exc_type, exc, tb):
        # Unlike get/put waits, a granted request must be *released* on
        # normal exit — that is the whole point of the with-block.
        self.resource.cancel(self)
        return False

    def _describe_wait(self) -> str:
        res = self.resource
        holders = sorted(_owner_name(user) for user in res.users)
        return (f"{res._label()} ({res.count}/{res.capacity} in use, "
                f"{len(res.queue)} queued; held by {holders})")


class StorePut(_BlockingEvent):
    """A pending or completed ``Store.put``."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.store = store
        self.item = item

    def withdraw(self) -> None:
        if self._withdrawn or self.processed:
            return
        self._withdrawn = True
        if not self.triggered:
            try:
                self.store._putters.remove(self)
            except ValueError:
                pass
        # A triggered put already stored the item — nothing leaks.

    def _describe_wait(self) -> str:
        s = self.store
        return (f"{s._label()}.put ({len(s.items)}/{s.capacity} items, "
                f"{len(s._putters)} putter(s), {len(s._getters)} getter(s) "
                f"waiting)")


class StoreGet(_BlockingEvent):
    """A pending or granted ``Store.get``."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self.store = store

    def withdraw(self) -> None:
        if self._withdrawn or self.processed:
            return
        self._withdrawn = True
        store = self.store
        if self.triggered:
            # Granted this timestep but the waiter will never consume
            # it: restore the item to the head of the queue.  (This may
            # transiently exceed a bounded store's capacity; the item
            # was inside moments ago, and no new put is admitted until
            # the level drops again.)
            store.items.appendleft(self._value)
        else:
            try:
                store._getters.remove(self)
            except ValueError:
                pass
        store._dispatch()

    def _describe_wait(self) -> str:
        s = self.store
        return (f"{s._label()}.get ({len(s.items)} items, "
                f"{len(s._getters)} getter(s), {len(s._putters)} putter(s) "
                f"waiting)")


class Store:
    """FIFO item store. ``put`` blocks when full, ``get`` blocks when empty."""

    def __init__(self, env: Environment, capacity: float = Infinity,
                 name: Optional[str] = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def _label(self) -> str:
        return f"Store {self.name!r}" if self.name else "Store"

    def put(self, item: Any) -> StorePut:
        """Return an event that fires once ``item`` is stored."""
        event = StorePut(self, item)
        items = self.items
        if not self._putters and len(items) < self.capacity:
            # Uncontended: what _dispatch does for a lone putter.
            items.append(item)
            event.succeed()
            getters = self._getters
            while getters and items:
                getters.popleft().succeed(items.popleft())
            return event
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Return an event that fires with the next item."""
        event = StoreGet(self)
        if self.items and not self._getters and not self._putters:
            # Uncontended: what _dispatch does for a lone getter.
            event.succeed(self.items.popleft())
            return event
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
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

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return f"<{self._label()} {len(self.items)}/{self.capacity} items>"


class Resource:
    """A counted resource with FIFO granting.

    Usage::

        with resource.request() as req:
            yield req
            ...  # hold the resource; released on exit, even on error

    The explicit form — ``req = resource.request(); yield req;
    try/finally: resource.release(req)`` — remains supported.
    """

    def __init__(self, env: Environment, capacity: int = 1,
                 name: Optional[str] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: list = []
        self.queue: Deque[Request] = deque()

    def _label(self) -> str:
        return f"Resource {self.name!r}" if self.name else "Resource"

    @property
    def count(self) -> int:
        """Number of granted requests currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Claim one unit; the returned event fires when granted."""
        request = Request(self)
        self.queue.append(request)
        self._grant()
        return request

    def release(self, request: Request) -> None:
        """Return a previously granted unit."""
        try:
            self.users.remove(request)
        except ValueError:
            raise SimulationError("releasing a request that was never granted") from None
        self._grant()

    def cancel(self, request: Request) -> None:
        """Withdraw ``request``, whatever state it is in.

        * still queued — removed from the wait queue;
        * already granted (even in the same timestep, before the waiter
          ever resumed) — released, so the unit goes to the next
          waiter instead of leaking to a dead one;
        * already released or cancelled — a no-op, making cancel safe
          to call from ``finally`` blocks and ``with`` exits.
        """
        if request._value is _PENDING:
            # Never granted: still queued, or already withdrawn.
            if request in self.queue:
                self.queue.remove(request)
            return
        users = self.users
        for index, user in enumerate(users):
            if user is request:
                del users[index]
                self._grant()
                return

    def _grant(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.popleft()
            self.users.append(request)
            request.succeed(request)

    def __repr__(self) -> str:
        return (f"<{self._label()} {self.count}/{self.capacity} used, "
                f"{len(self.queue)} waiting>")


class ContainerPut(_BlockingEvent):
    """A pending or completed ``Container.put``."""

    __slots__ = ("container", "amount")

    def __init__(self, container: "Container", amount: float):
        super().__init__(container.env)
        self.container = container
        self.amount = amount

    def withdraw(self) -> None:
        if self._withdrawn or self.processed:
            return
        self._withdrawn = True
        if not self.triggered:
            try:
                self.container._putters.remove(self)
            except ValueError:
                pass
            # Removing a blocked head putter may unblock those behind it.
            self.container._dispatch()
        # A triggered put already added its tokens — nothing leaks.

    def _describe_wait(self) -> str:
        c = self.container
        return (f"{c._label()}.put({self.amount}) "
                f"(level {c._level}/{c.capacity}, "
                f"{len(c._putters)} putter(s), {len(c._getters)} getter(s) "
                f"waiting)")


class ContainerGet(_BlockingEvent):
    """A pending or granted ``Container.get``."""

    __slots__ = ("container", "amount")

    def __init__(self, container: "Container", amount: float):
        super().__init__(container.env)
        self.container = container
        self.amount = amount

    def withdraw(self) -> None:
        if self._withdrawn or self.processed:
            return
        self._withdrawn = True
        container = self.container
        if self.triggered:
            # Granted this timestep but never consumed: return the
            # tokens to the pool.
            container._level += self.amount
        else:
            try:
                container._getters.remove(self)
            except ValueError:
                pass
        container._dispatch()

    def _describe_wait(self) -> str:
        c = self.container
        return (f"{c._label()}.get({self.amount}) "
                f"(level {c._level}/{c.capacity}, "
                f"{len(c._getters)} getter(s), {len(c._putters)} putter(s) "
                f"waiting)")


class Container:
    """A pool of interchangeable tokens (e.g. link credits).

    ``get(n)`` blocks until ``n`` tokens are available; ``put(n)`` blocks
    until there is room.  Waiters are served FIFO, so a large ``get``
    cannot be starved by a stream of small ones.
    """

    def __init__(self, env: Environment, capacity: float = Infinity,
                 init: float = 0, name: Optional[str] = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init must be in [0, {capacity}], got {init}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._level = init
        self._putters: Deque[ContainerPut] = deque()
        self._getters: Deque[ContainerGet] = deque()

    def _label(self) -> str:
        return f"Container {self.name!r}" if self.name else "Container"

    @property
    def level(self) -> float:
        """Tokens currently available."""
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Add ``amount`` tokens; fires when they fit under capacity."""
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        if amount > self.capacity:
            raise ValueError(
                f"putting {amount} exceeds capacity {self.capacity}: "
                f"it could never fit and would deadlock")
        event = ContainerPut(self, amount)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self, amount: float) -> ContainerGet:
        """Take ``amount`` tokens; fires when available."""
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        if amount > self.capacity:
            raise ValueError(
                f"requested {amount} exceeds capacity {self.capacity}")
        event = ContainerGet(self, amount)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
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

    def __repr__(self) -> str:
        return f"<{self._label()} {self._level}/{self.capacity}>"
