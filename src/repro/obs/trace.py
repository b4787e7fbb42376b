"""Structured trace schema: typed events and the in-memory collector.

The schema is deliberately small — three phases, borrowed from the Chrome
``trace_event`` format so the export is a straight mapping:

``"X"`` (span)
    Something with duration: a handler running on a switch CPU, a packet
    on a wire, a disk access.  ``ts_ps`` is the start, ``dur_ps`` the length.
``"i"`` (instant)
    A point event: a dispatch decision, a block arrival, a fault.
``"C"`` (counter)
    A sampled series: event-heap occupancy, queue depths.

Every event carries a ``component`` (the timeline track it belongs to —
``"sw0.cpu0"``, ``"host0"``, ``"disk0.0"``, ``"sim"``) and a ``name`` (the
event type — ``"handler"``, ``"link.xmit"``, ``"disk.read"``).  Names are
dotted, ``<subsystem>.<what>``, and the subsystem prefix becomes the Chrome
category.  Extra fields (packet ids, byte counts, cycle attribution) ride
in ``args`` as a sorted tuple of pairs so events hash and compare cleanly.

All timestamps are integer picoseconds, same as the simulator clock: a
trace is exact, never rounded, and the exporter preserves the integers even
though Chrome's own ``ts`` field is microseconds.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from typing import Any, Dict, Iterator, List, Optional, Tuple

PHASE_SPAN = "X"
PHASE_INSTANT = "i"
PHASE_COUNTER = "C"

_PHASES = (PHASE_SPAN, PHASE_INSTANT, PHASE_COUNTER)

#: Version of the event schema; embedded in exports and checked on load.
SCHEMA_VERSION = 1

#: Trace records between two ``sim``/``event-heap`` samples in a run.
_HEAP_SAMPLE_EVERY = 64

_NEGATIVE = "trace timestamps must be non-negative"


class TraceEvent(namedtuple("_EventFields",
                            "phase component name ts_ps dur_ps args")):
    """One structured trace event: an immutable named tuple.

    Hashable, so two identical runs produce equal event sequences, which
    is what the determinism tests assert on.  Every public way to build
    one validates: the call, ``_make`` and ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, phase: str, component: str, name: str, ts_ps: int,
                dur_ps: int = 0, args: Tuple[Tuple[str, Any], ...] = ()):
        if phase not in _PHASES:
            raise ValueError(
                f"unknown trace phase {phase!r}; expected one of "
                f"{_PHASES}")
        if ts_ps < 0 or dur_ps < 0:
            raise ValueError(_NEGATIVE)
        return tuple.__new__(cls, (phase, component, name, ts_ps, dur_ps,
                                   args))

    @classmethod
    def _make(cls, iterable) -> "TraceEvent":
        return cls(*iterable)

    @property
    def end_ps(self) -> int:
        """Span end time (== ``ts_ps`` for instants and counters)."""
        return self.ts_ps + self.dur_ps

    @property
    def category(self) -> str:
        """The subsystem prefix of the dotted name (``"link.xmit"`` ->
        ``"link"``); the bare name when there is no dot."""
        head, _, _ = self.name.partition(".")
        return head

    def get(self, key: str, default: Any = None) -> Any:
        """Look up one ``args`` field by name."""
        for k, v in self.args:
            if k == key:
                return v
        return default

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (args expanded) for ad-hoc inspection."""
        out = self._asdict()
        out.update(out.pop("args"))
        return out


class TraceCollector:
    """In-memory sink for structured trace events.

    Attach one to an environment (``env.trace = collector``, or
    ``System.attach_trace`` / ``repro.run(trace=True)`` higher up) and the
    instrumented components start emitting.  ``capacity`` bounds memory:
    once full, *new* events are dropped and counted in :attr:`dropped` —
    the head of the trace survives, and the drop count is folded into
    ``System.reliability_report()``.

    A record is one ``extend`` of a flat list with its raw fields; the
    first read of :attr:`events` builds the :class:`TraceEvent`\\ s.
    """

    __slots__ = ("_capacity", "dropped", "_built", "_raw", "_env", "_room")

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._capacity = capacity
        self.dropped = 0
        self._built: List[TraceEvent] = []
        self._raw: list = []  # phase, component, name, ts, dur, kwargs, ...
        self._env: Optional[Any] = None  # sampled from run() entry to exit
        self._room = self._room_left()  # records before _make_room runs

    @property
    def capacity(self) -> Optional[int]:
        """Most events kept; None for no bound."""
        return self._capacity

    # -- emit ----------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        """Append one built event, honouring the capacity bound."""
        if self._room or self._make_room():
            self._room -= 1
            self.events.append(event)

    def span(self, component: str, name: str, start_ps: int, dur_ps: int,
             **args: Any) -> None:
        """Record a complete span (phase ``"X"``)."""
        if start_ps < 0 or dur_ps < 0:
            raise ValueError(_NEGATIVE)
        if self._room or self._make_room():
            self._room -= 1
            self._raw.extend(
                (PHASE_SPAN, component, name, start_ps, dur_ps, args))

    def instant(self, component: str, name: str, ts_ps: int,
                **args: Any) -> None:
        """Record a point event (phase ``"i"``)."""
        if ts_ps < 0:
            raise ValueError(_NEGATIVE)
        if self._room or self._make_room():
            self._room -= 1
            self._raw.extend((PHASE_INSTANT, component, name, ts_ps, 0, args))

    def counter(self, component: str, name: str, ts_ps: int,
                value: float) -> None:
        """Record one sample of a counter series (phase ``"C"``)."""
        if ts_ps < 0:
            raise ValueError(_NEGATIVE)
        if self._room or self._make_room():
            self._room -= 1
            self._raw.extend((PHASE_COUNTER, component, name, ts_ps, 0,
                              {"value": value}))

    def _room_left(self) -> int:
        room = _HEAP_SAMPLE_EVERY if self._env is not None else sys.maxsize
        if self._capacity is not None:
            room = max(min(room, self._capacity - len(self)), 0)
        return room

    def _make_room(self) -> bool:
        """The fast path ran out of room: a heap sample is due (record
        it), or the collector is full (count a drop, return False)."""
        env = self._env
        if env is not None and self._room_left():
            self._raw.extend((PHASE_COUNTER, "sim", "event-heap", env.now, 0,
                              {"value": len(env._queue)}))
        self._room = self._room_left()
        if not self._room:
            self.dropped += 1
        return bool(self._room)

    # -- event-heap sampling, around Environment.run -------------------

    def _enter_run(self, env: Any) -> None:
        self.counter("sim", "event-heap", env.now, len(env._queue))
        self._env = env
        self._room = self._room_left()

    def _exit_run(self, env: Any) -> None:
        # Let go of the environment: the trace outlives the simulation.
        # The room left stays valid; _make_room recomputes it later.
        self._env = None
        self.counter("sim", "event-heap", env.now, len(env._queue))

    # -- query ---------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """Every kept event in emission order (a list to read, not edit);
        pending records are built, args as sorted pairs, and cached."""
        raw = self._raw
        if raw:
            fields = iter(raw)
            new = tuple.__new__
            self._built += [
                new(TraceEvent, (phase, component, name, ts, dur,
                                 tuple(sorted(kwargs.items()))))
                for phase, component, name, ts, dur, kwargs
                in zip(fields, fields, fields, fields, fields, fields)]
            raw.clear()
        return self._built

    def __len__(self) -> int:
        return len(self._built) + len(self._raw) // 6

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceCollector):
            return NotImplemented
        return ((self._capacity, self.events, self.dropped)
                == (other._capacity, other.events, other.dropped))

    def __repr__(self) -> str:
        return (f"TraceCollector(capacity={self._capacity!r}, "
                f"events={self.events!r}, dropped={self.dropped!r})")

    def select(self, name: Optional[str] = None,
               component: Optional[str] = None,
               phase: Optional[str] = None) -> List[TraceEvent]:
        """Events matching every given filter (None matches anything)."""
        return [e for e in self.events
                if (name is None or e.name == name)
                and (component is None or e.component == component)
                and (phase is None or e.phase == phase)]

    def count(self, name: Optional[str] = None) -> int:
        if name is None:
            return len(self)
        return sum(1 for e in self.events if e.name == name)

    def components(self) -> List[str]:
        """Distinct components in first-seen order (the timeline tracks)."""
        return list(dict.fromkeys(e.component for e in self.events))

    def names(self) -> List[str]:
        """Distinct event names in first-seen order."""
        return list(dict.fromkeys(e.name for e in self.events))

    def span_ps(self) -> Tuple[int, int]:
        """(earliest start, latest end) over all events; (0, 0) if empty."""
        events = self.events
        if not events:
            return (0, 0)
        return (min(e.ts_ps for e in events), max(e.end_ps for e in events))

    def summary(self) -> Dict[str, int]:
        """Event counts keyed by name, plus ``"dropped"`` when nonzero."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.name] = out.get(e.name, 0) + 1
        if self.dropped:
            out["dropped"] = self.dropped
        return out

    def clear(self) -> None:
        self._built.clear()
        self._raw.clear()
        self.dropped = 0
        self._room = self._room_left()
