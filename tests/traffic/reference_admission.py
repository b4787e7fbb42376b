"""Reference admission queue: the oracle for the queue's order.

This is :class:`repro.traffic.AdmissionQueue` as it stood before it
dropped its :class:`~repro.sim.Store`: every admission and every
closing sentinel is a ``Store.put`` event, and ``take`` is a generator
around ``Store.get`` that does the take bookkeeping when it resumes its
taker.  ``tests/traffic/test_admission_differential.py`` runs the same
programs on both queues; they must resume every process at the same
instant with the same value and end with the same counters, while the
queue under test schedules one event fewer per admission and per
sentinel.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.metrics.sampling import TimeWeighted
from repro.sim.resources import Store

ADMISSION_POLICIES = ("drop", "backpressure")


class _Closed:
    """Sentinel marking the end of the admitted request stream."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<CLOSED>"


CLOSED = _Closed()


class AdmissionQueue:
    """Bounded FIFO between arrival and dispatch, with depth accounting.

    ``offer`` and ``take`` are generators driven from simulation
    processes.  Under ``drop`` an arrival finding ``depth`` requests
    outstanding is rejected immediately; under ``backpressure`` the
    offering process blocks until a slot frees (head-of-line: one
    admission point, exactly like one NIC descriptor ring).
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
        self._store: Store = Store(env)
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

    def offer(self, item):
        """Try to admit ``item``; yields, returns True iff admitted.

        The returned entry timestamp is the *offer* time, so for
        ``backpressure`` the blocked wait counts as queue delay.
        """
        self.offered += 1
        arrived_ps = self.env.now
        if self._occupancy >= self.depth:
            if self.policy == "drop":
                self.dropped += 1
                return False
            while self._occupancy >= self.depth:
                waiter = self.env.event()
                self._waiters.append(waiter)
                yield waiter
        self.admitted += 1
        self._occupancy += 1
        self.depth_signal.set(self._occupancy)
        self._store.put((arrived_ps, item))
        return True

    def take(self):
        """Next admitted entry ``(offer_ps, item)``, or ``CLOSED``."""
        entry = yield self._store.get()
        if entry is CLOSED:
            return CLOSED
        self._occupancy -= 1
        self.depth_signal.set(self._occupancy)
        if self._waiters:
            self._waiters.popleft().succeed()
        return entry

    def close(self, consumers: int) -> None:
        """Wake ``consumers`` takers after the last offer (FIFO: every
        admitted request drains before any consumer sees the sentinel)."""
        for _ in range(consumers):
            self._store.put(CLOSED)

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
