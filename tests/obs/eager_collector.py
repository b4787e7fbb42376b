"""The eager reference collector: the oracle for ``TraceCollector``.

This is the collector as it stood before recording became lazy.  Every
call builds, validates and stores a :class:`~repro.obs.TraceEvent` at
once, with its keyword arguments frozen to sorted pairs.
``tests/obs/test_lazy_collector.py`` holds the lazy collector to it, read
for read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import PHASE_COUNTER, PHASE_INSTANT, PHASE_SPAN, TraceEvent


def _freeze_args(kwargs: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(kwargs.items()))


@dataclass
class EagerCollector:
    capacity: Optional[int] = None
    events: List[TraceEvent] = field(default_factory=list)
    dropped: int = 0

    # -- emit ----------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)

    def span(self, component: str, name: str, start_ps: int, dur_ps: int,
             **args: Any) -> None:
        self.emit(TraceEvent(PHASE_SPAN, component, name, start_ps, dur_ps,
                             _freeze_args(args)))

    def instant(self, component: str, name: str, ts_ps: int,
                **args: Any) -> None:
        self.emit(TraceEvent(PHASE_INSTANT, component, name, ts_ps, 0,
                             _freeze_args(args)))

    def counter(self, component: str, name: str, ts_ps: int,
                value: float) -> None:
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
        return [e for e in self.events
                if (name is None or e.name == name)
                and (component is None or e.component == component)
                and (phase is None or e.phase == phase)]

    def count(self, name: Optional[str] = None) -> int:
        if name is None:
            return len(self.events)
        return sum(1 for e in self.events if e.name == name)

    def components(self) -> List[str]:
        seen: Dict[str, None] = {}
        for e in self.events:
            if e.component not in seen:
                seen[e.component] = None
        return list(seen)

    def names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for e in self.events:
            if e.name not in seen:
                seen[e.name] = None
        return list(seen)

    def span_ps(self) -> Tuple[int, int]:
        if not self.events:
            return (0, 0)
        start = min(e.ts_ps for e in self.events)
        end = max(e.end_ps for e in self.events)
        return (start, end)

    def summary(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.name] = out.get(e.name, 0) + 1
        if self.dropped:
            out["dropped"] = self.dropped
        return out

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
