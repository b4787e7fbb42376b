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

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

PHASE_SPAN = "X"
PHASE_INSTANT = "i"
PHASE_COUNTER = "C"

_PHASES = (PHASE_SPAN, PHASE_INSTANT, PHASE_COUNTER)

#: Version of the event schema; embedded in exports and checked on load.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace event.

    Immutable and hashable: two identical runs produce equal event
    sequences, which is what the determinism tests assert on.
    """

    phase: str
    component: str
    name: str
    ts_ps: int
    dur_ps: int = 0
    args: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.phase not in _PHASES:
            raise ValueError(
                f"unknown trace phase {self.phase!r}; expected one of "
                f"{_PHASES}")
        if self.ts_ps < 0 or self.dur_ps < 0:
            raise ValueError("trace timestamps must be non-negative")

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
        out: Dict[str, Any] = {
            "phase": self.phase,
            "component": self.component,
            "name": self.name,
            "ts_ps": self.ts_ps,
            "dur_ps": self.dur_ps,
        }
        out.update(dict(self.args))
        return out


def _freeze_args(kwargs: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(kwargs.items()))


@dataclass
class TraceCollector:
    """In-memory sink for structured trace events.

    Attach one to an environment (``env.trace = collector``, or
    ``System.attach_trace`` / ``repro.run(trace=True)`` higher up) and the
    instrumented components start emitting.  ``capacity`` bounds memory:
    once full, *new* events are dropped and counted in :attr:`dropped` —
    the head of the trace survives, and the drop count is folded into
    ``System.reliability_report()``.
    """

    capacity: Optional[int] = None
    events: List[TraceEvent] = field(default_factory=list)
    dropped: int = 0

    # -- emit ----------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        """Append one event, honouring the capacity bound."""
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)

    def span(self, component: str, name: str, start_ps: int, dur_ps: int,
             **args: Any) -> None:
        """Record a complete span (phase ``"X"``)."""
        self.emit(TraceEvent(PHASE_SPAN, component, name, start_ps, dur_ps,
                             _freeze_args(args)))

    def instant(self, component: str, name: str, ts_ps: int,
                **args: Any) -> None:
        """Record a point event (phase ``"i"``)."""
        self.emit(TraceEvent(PHASE_INSTANT, component, name, ts_ps, 0,
                             _freeze_args(args)))

    def counter(self, component: str, name: str, ts_ps: int,
                value: float) -> None:
        """Record one sample of a counter series (phase ``"C"``)."""
        self.emit(TraceEvent(PHASE_COUNTER, component, name, ts_ps, 0,
                             (("value", value),)))

    # -- query ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

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
            return len(self.events)
        return sum(1 for e in self.events if e.name == name)

    def components(self) -> List[str]:
        """Distinct components in first-seen order (the timeline tracks)."""
        seen: Dict[str, None] = {}
        for e in self.events:
            if e.component not in seen:
                seen[e.component] = None
        return list(seen)

    def names(self) -> List[str]:
        """Distinct event names in first-seen order."""
        seen: Dict[str, None] = {}
        for e in self.events:
            if e.name not in seen:
                seen[e.name] = None
        return list(seen)

    def span_ps(self) -> Tuple[int, int]:
        """(earliest start, latest end) over all events; (0, 0) if empty."""
        if not self.events:
            return (0, 0)
        start = min(e.ts_ps for e in self.events)
        end = max(e.end_ps for e in self.events)
        return (start, end)

    def summary(self) -> Dict[str, int]:
        """Event counts keyed by name, plus ``"dropped"`` when nonzero."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.name] = out.get(e.name, 0) + 1
        if self.dropped:
            out["dropped"] = self.dropped
        return out

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
