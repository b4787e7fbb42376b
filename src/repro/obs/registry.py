"""MetricsRegistry: named, queryable series with snapshot/diff support.

The simulator already measures plenty — ``TimeWeighted`` integrals, per-link
``BusyTracker`` utilization and ``LinkStats``, per-disk ``DiskStats`` — but
each lives on its own component object with its own spelling.  The
registry gives them one namespace: every metric is a *probe*, a zero-arg
callable returning the current value, registered under a dotted name
(``"link.host0->sw0.bytes"``, ``"cpu.sw0.cpu1.busy_ps"``).

Probes are pull-based: registering one costs a dict entry, and nothing is
evaluated until :meth:`MetricsRegistry.snapshot` walks the namespace.  That
keeps the registry free on the simulation hot path — the same
zero-cost-when-idle rule the tracer follows.

Snapshots are plain ``dict``s, so experiments can assert on intermediate
state::

    before = system.metrics.snapshot()
    env.run(until=checkpoint)
    delta = system.metrics.diff(before)
    assert delta["link.host0->sw0.bytes"] <= budget
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Optional

Probe = Callable[[], float]


class MetricsCounter:
    """A tiny push-style counter for call sites with no stats object.

    Created via :meth:`MetricsRegistry.counter`; incrementing is one
    attribute add, and the registry reads :attr:`value` at snapshot time.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, initial: float = 0):
        self.name = name
        self.value = initial

    def add(self, amount: float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"MetricsCounter({self.name!r}, value={self.value!r})"


class MetricsRegistry:
    """A namespace of named metric probes with snapshot/diff support."""

    def __init__(self) -> None:
        self._probes: Dict[str, Probe] = {}

    # -- registration --------------------------------------------------

    def register(self, name: str, probe: Probe) -> Probe:
        """Register ``probe`` (a zero-arg callable) under ``name``.

        Re-registering a name replaces the previous probe, so components
        that are rebuilt (e.g. per-case ``System`` construction) stay
        idempotent.
        """
        if not callable(probe):
            raise TypeError(f"probe for {name!r} must be callable")
        self._probes[name] = probe
        return probe

    def counter(self, name: str, initial: float = 0) -> MetricsCounter:
        """Create, register, and return a push-style counter."""
        counter = MetricsCounter(name, initial)
        self.register(name, lambda: counter.value)
        return counter

    def register_stats(self, prefix: str, obj: object,
                       fields: Optional[List[str]] = None) -> None:
        """Register every numeric public attribute of a stats object.

        ``fields`` restricts the attribute list; otherwise all public
        int/float attributes (including properties) are probed.  Each one
        becomes ``f"{prefix}.{field}"``.
        """
        if fields is None:
            fields = [n for n in dir(obj)
                      if not n.startswith("_")
                      and isinstance(getattr(obj, n, None), (int, float))
                      and not isinstance(getattr(obj, n), bool)]
        for name in fields:
            self.register(f"{prefix}.{name}",
                          lambda o=obj, n=name: getattr(o, n))

    def unregister(self, name: str) -> None:
        self._probes.pop(name, None)

    # -- query ---------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._probes)

    def value(self, name: str) -> float:
        """Evaluate one probe now."""
        return self._probes[name]()

    def __contains__(self, name: str) -> bool:
        return name in self._probes

    def __len__(self) -> int:
        return len(self._probes)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._probes))

    # -- snapshot / diff -----------------------------------------------

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, float]:
        """Evaluate every probe (optionally restricted to a dotted prefix)
        and return ``{name: value}`` sorted by name."""
        names = self.names()
        if prefix is not None:
            dotted = prefix + "."
            names = [n for n in names
                     if n == prefix or n.startswith(dotted)]
        return {name: self._probes[name]() for name in names}

    def diff(self, before: Mapping[str, float],
             after: Optional[Mapping[str, float]] = None,
             ) -> Dict[str, float]:
        """Per-metric change between two snapshots.

        ``after`` defaults to a fresh :meth:`snapshot`.  Only metrics whose
        value changed appear; metrics present in just one snapshot are
        treated as starting (or ending) at 0.
        """
        if after is None:
            after = self.snapshot()
        out: Dict[str, float] = {}
        for name in sorted(set(before) | set(after)):
            delta = after.get(name, 0) - before.get(name, 0)
            if delta:
                out[name] = delta
        return out
