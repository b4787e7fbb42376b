"""Bounded admission queue in front of the serving host's HCA.

Open-loop traffic must be *admitted* before it can be served: the
queue-pair completion ring is finite, so a server under overload either
sheds load (``drop``) or pushes back into the fabric (``backpressure``).
:class:`AdmissionQueue` models that choice explicitly and keeps the
accounting the latency reports need — offered/admitted/dropped counts
and a time-weighted depth signal — while *queue delay* (admission to
dispatch) stays separate from service time by construction: entries
carry their admission timestamp.

The queue attaches to the serving host's
:class:`~repro.net.hca.ChannelAdapter` (see ``attach_admission``), so
its drop counters surface through the same ``reliability()`` snapshot
as the link-level fault counters.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from ..metrics.sampling import TimeWeighted
from ..sim.events import Event

#: Admission policies: shed load or push back on the arrival source.
ADMISSION_POLICIES = ("drop", "backpressure")


class _Closed:
    """Sentinel marking the end of the admitted request stream."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<CLOSED>"


CLOSED = _Closed()


class _Take(Event):
    """A pending or granted :meth:`AdmissionQueue.take`.

    Withdrawable like ``StoreGet``: an interrupted taker that is still
    waiting leaves the line, and a grant that landed in the same
    timestep goes back to the head of the queue, untaken.
    """

    __slots__ = ("queue", "_withdrawn")

    def __init__(self, queue: "AdmissionQueue"):
        super().__init__(queue.env)
        self.callbacks.append(queue._took)
        self.queue = queue
        self._withdrawn = False

    def withdraw(self) -> None:
        if self._withdrawn or self.processed:
            return
        self._withdrawn = True
        queue = self.queue
        if not self.triggered:
            queue._takers.remove(self)
            return
        self.callbacks.remove(queue._took)
        if queue._takers:
            queue._takers.popleft().succeed(self._value)
        else:
            queue._entries.appendleft(self._value)

    def _describe_wait(self) -> str:
        return (f"{self.queue!r}.take "
                f"({len(self.queue._takers)} taker(s) waiting)")


class AdmissionQueue:
    """Bounded FIFO between arrival and dispatch, with depth accounting.

    Under ``drop`` an arrival finding ``depth`` requests outstanding is
    rejected immediately; under ``backpressure`` the offering process
    blocks until a slot frees (head-of-line: one admission point,
    exactly like one NIC descriptor ring).  :meth:`try_offer` admits or
    drops without waiting; :meth:`offer` is the generator that also
    waits.  An admitted entry goes straight to the worker that has
    waited longest in :meth:`take`, else to the back of the queue.
    """

    def __init__(self, env, depth: int, policy: str = "drop"):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if policy not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy {policy!r}; "
                             f"known: {ADMISSION_POLICIES}")
        self.env = env
        self.depth = depth
        self.policy = policy
        self._entries: Deque = deque()
        self._takers: Deque[_Take] = deque()
        self._occupancy = 0
        self._waiters: Deque = deque()
        self.offered = 0
        self.admitted = 0
        self.dropped = 0
        self.depth_signal = TimeWeighted(env)

    @property
    def queued(self) -> int:
        """Requests admitted but not yet dispatched."""
        return self._occupancy

    def try_offer(self, item) -> Optional[bool]:
        """Admit ``item`` (True) or drop it (False) without waiting.

        Returns None, counting nothing, when a full ``backpressure``
        queue makes the offerer wait: :meth:`offer` then does.
        """
        if self._occupancy >= self.depth:
            if self.policy != "drop":
                return None
            self.offered += 1
            self.dropped += 1
            return False
        self.offered += 1
        self._admit(self.env.now, item)
        return True

    def offer(self, item):
        """Try to admit ``item``; yields, returns True iff admitted.

        The entry timestamp is the *offer* time, so for
        ``backpressure`` the blocked wait counts as queue delay.
        """
        admitted = self.try_offer(item)
        if admitted is not None:
            return admitted
        self.offered += 1
        arrived_ps = self.env.now
        while self._occupancy >= self.depth:
            waiter = self.env.event()
            self._waiters.append(waiter)
            yield waiter
        self._admit(arrived_ps, item)
        return True

    def _admit(self, arrived_ps: int, item) -> None:
        self.admitted += 1
        self._occupancy += 1
        self.depth_signal.set(self._occupancy)
        self._hand((arrived_ps, item))

    def _hand(self, entry) -> None:
        # An entry waits only while no taker does, and vice versa.
        if self._takers:
            self._takers.popleft().succeed(entry)
        else:
            self._entries.append(entry)

    def take(self) -> "_Take":
        """Event firing with the next entry ``(offer_ps, item)``, or
        ``CLOSED``: ``entry = yield queue.take()``."""
        take = _Take(self)
        if self._entries:
            take.succeed(self._entries.popleft())
        else:
            self._takers.append(take)
        return take

    def _took(self, take: "_Take") -> None:
        # The take's first callback: the entry leaves the queue just
        # before its taker resumes.
        if take._value is not CLOSED:
            self._occupancy -= 1
            self.depth_signal.set(self._occupancy)
            if self._waiters:
                self._waiters.popleft().succeed()

    def close(self, consumers: int) -> None:
        """Wake ``consumers`` takers after the last offer (FIFO: every
        admitted request drains before any consumer sees the sentinel)."""
        for _ in range(consumers):
            self._hand(CLOSED)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def drop_rate(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0

    def snapshot(self, until_ps: Optional[int] = None) -> Dict[str, float]:
        """Counter snapshot for reports and metric registries."""
        return {
            "offered": float(self.offered),
            "admitted": float(self.admitted),
            "dropped": float(self.dropped),
            "drop_rate": self.drop_rate,
            "mean_depth": self.depth_signal.mean(until_ps),
            "max_depth": self.depth_signal.maximum,
        }

    def __repr__(self) -> str:
        return (f"<AdmissionQueue {self.policy} depth={self.depth} "
                f"queued={self.queued} dropped={self.dropped}>")
