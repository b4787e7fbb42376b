"""Time-weighted statistics and streaming quantiles.

Utilization, queue depth, and level metrics need *time-weighted*
averages (a queue that is empty for 9 ms and holds 10 items for 1 ms
averages 1.0, not 5.0).  :class:`TimeWeighted` integrates a piecewise-
constant signal; :class:`BusyTracker` specialises it for busy/idle
signals and reports utilization.

:class:`QuantileEstimator` records per-request latencies for the
open-loop traffic layer: exact (numpy.percentile-compatible) up to a
sample budget, then collapsing to a DDSketch-style log-bucketed
histogram with a relative-error bound, mergeable across streams.

These are pull-free: components call :meth:`TimeWeighted.set` when the
value changes; nothing polls.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional


class TimeWeighted:
    """Integrates a piecewise-constant value over simulated time."""

    def __init__(self, env, initial: float = 0.0):
        self.env = env
        self._value = initial
        self._start_ps = env.now
        self._last_change_ps = env.now
        self._integral = 0.0  # value x ps
        self._min = initial
        self._max = initial

    @property
    def value(self) -> float:
        """The current value."""
        return self._value

    def set(self, value: float) -> None:
        """Change the value from now on."""
        now = self.env.now
        self._integral += self._value * (now - self._last_change_ps)
        self._last_change_ps = now
        self._value = value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def add(self, delta: float) -> None:
        """Adjust the value by ``delta`` (queue join/leave)."""
        self.set(self._value + delta)

    def mean(self, until_ps: Optional[int] = None) -> float:
        """Time-weighted mean from creation to ``until_ps`` (default now).

        ``until_ps`` must not predate the last :meth:`set`/:meth:`add`:
        only the running integral is retained, so a mean ending inside
        already-integrated history cannot be reconstructed — and naively
        integrating a *negative* open segment would silently corrupt
        utilization figures.  Such a query raises :class:`ValueError`.
        ``until_ps`` beyond ``env.now`` is allowed and extrapolates the
        current value.
        """
        end = self.env.now if until_ps is None else until_ps
        if end < self._last_change_ps:
            raise ValueError(
                f"mean(until_ps={end}) predates the last change at "
                f"{self._last_change_ps} ps; time-weighted history before "
                f"that point is not retained")
        span = end - self._start_ps
        if span <= 0:
            return self._value
        # Integrate the still-open segment.
        integral = self._integral + self._value * (end - self._last_change_ps)
        return integral / span

    @property
    def minimum(self) -> float:
        return self._min

    @property
    def maximum(self) -> float:
        return self._max

    def __repr__(self) -> str:
        return f"<TimeWeighted now={self._value} mean={self.mean():.3f}>"


class BusyTracker:
    """Binary busy/idle signal with utilization reporting."""

    def __init__(self, env):
        self.env = env
        self._signal = TimeWeighted(env, initial=0.0)
        self._depth = 0  # nested busy sections

    def enter(self) -> None:
        """Mark the start of a busy section (nestable)."""
        self._depth += 1
        if self._depth == 1:
            self._signal.set(1.0)

    def exit(self) -> None:
        """Mark the end of a busy section."""
        if self._depth <= 0:
            raise ValueError("exit() without matching enter()")
        self._depth -= 1
        if self._depth == 0:
            self._signal.set(0.0)

    @property
    def busy(self) -> bool:
        return self._depth > 0

    def utilization(self, until_ps: Optional[int] = None) -> float:
        """Fraction of time busy since creation."""
        return self._signal.mean(until_ps)

    def __repr__(self) -> str:
        return f"<BusyTracker {'busy' if self.busy else 'idle'}>"


class QuantileEstimator:
    """Streaming, mergeable quantiles with a relative-error bound.

    Two regimes, switched automatically:

    * **exact** — up to ``exact_limit`` samples are kept verbatim and
      :meth:`quantile` linearly interpolates exactly like
      ``numpy.percentile(..., method="linear")``;
    * **sketch** — past the budget the samples collapse into
      log-spaced buckets (``gamma = (1 + eps) / (1 - eps)``, the
      DDSketch indexing scheme), after which every reported quantile
      is within relative error ``eps`` of the true sample quantile.

    Estimators with the same ``eps`` merge losslessly (bucket counts
    add; two small exact estimators stay exact), so per-stream
    latency series combine into aggregate percentiles without keeping
    every sample.  Values must be non-negative — these are latencies,
    sizes, and counts.  Pure Python and deterministic: identical add
    sequences yield identical state.
    """

    def __init__(self, eps: float = 0.01, exact_limit: int = 512):
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        if exact_limit < 0:
            raise ValueError(f"exact_limit must be >= 0, got {exact_limit}")
        self.eps = eps
        self.exact_limit = exact_limit
        self._gamma = (1.0 + eps) / (1.0 - eps)
        self._log_gamma = math.log(self._gamma)
        self._samples: Optional[List[float]] = []  # None once sketched
        self._buckets: Dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # -- recording ----------------------------------------------------

    def add(self, value: float) -> None:
        """Record one observation (non-negative)."""
        value = float(value)
        if not 0.0 <= value < math.inf:  # negative, NaN or infinite
            raise ValueError(f"QuantileEstimator values must be "
                             f"non-negative finite numbers, got {value}")
        self._count += 1
        self._sum += value
        if self._min is None:
            self._min = self._max = value
        elif value < self._min:
            self._min = value
        elif value > self._max:
            self._max = value
        samples = self._samples
        if samples is not None:
            samples.append(value)
            if len(samples) > self.exact_limit:
                self._collapse()
        elif value == 0.0:
            self._zeros += 1
        else:
            buckets = self._buckets
            key = self._key(value)
            buckets[key] = buckets.get(key, 0) + 1

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def _key(self, value: float) -> int:
        return math.ceil(math.log(value) / self._log_gamma)

    def _bucket_value(self, key: int) -> float:
        # Midpoint (harmonic) of (gamma**(key-1), gamma**key]: within
        # eps relative error of every sample mapped to the bucket.
        return 2.0 * self._gamma ** key / (self._gamma + 1.0)

    def _collapse(self) -> None:
        samples, self._samples = self._samples, None
        for value in samples or ():
            if value == 0.0:
                self._zeros += 1
            else:
                key = self._key(value)
                self._buckets[key] = self._buckets.get(key, 0) + 1

    # -- querying -----------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def is_exact(self) -> bool:
        """True while every sample is retained verbatim."""
        return self._samples is not None

    @property
    def minimum(self) -> Optional[float]:
        return self._min

    @property
    def maximum(self) -> Optional[float]:
        return self._max

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> Optional[float]:
        return self._sum / self._count if self._count else None

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile (``0 <= q <= 1``); ``None`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self._count == 0:
            return None
        if self._samples is not None:
            ordered = sorted(self._samples)
            h = (len(ordered) - 1) * q
            lo = int(math.floor(h))
            hi = int(math.ceil(h))
            if lo == hi:
                return ordered[lo]
            return ordered[lo] + (ordered[hi] - ordered[lo]) * (h - lo)
        # Sketch: smallest bucket whose cumulative count covers the rank.
        rank = q * (self._count - 1)
        cumulative = self._zeros
        if cumulative > rank:
            return 0.0
        for key in sorted(self._buckets):
            cumulative += self._buckets[key]
            if cumulative > rank:
                # Clamp into the observed range so p0/p100 stay honest.
                value = self._bucket_value(key)
                return min(max(value, self._min or 0.0),
                           self._max if self._max is not None else value)
        return self._max

    def percentile(self, p: float) -> Optional[float]:
        """The ``p``-th percentile (``0 <= p <= 100``)."""
        return self.quantile(p / 100.0)

    def summary(self, percentiles=(50.0, 95.0, 99.0)) -> Dict[str, float]:
        """``{"count", "mean", "p50", ..., "max"}`` for reporting."""
        out: Dict[str, float] = {"count": float(self._count)}
        if self._count == 0:
            return out
        out["mean"] = self._sum / self._count
        for p in percentiles:
            label = f"p{p:g}"
            out[label] = self.percentile(p)
        out["max"] = self._max
        return out

    # -- merging ------------------------------------------------------

    def merge(self, other: "QuantileEstimator") -> "QuantileEstimator":
        """Fold ``other`` into this estimator (in place; returns self).

        Requires matching ``eps`` — bucket boundaries must line up for
        counts to add without losing the error bound.
        """
        if other.eps != self.eps:
            raise ValueError(
                f"cannot merge QuantileEstimators with different eps "
                f"({self.eps} vs {other.eps})")
        if other._count == 0:
            return self
        self._count += other._count
        self._sum += other._sum
        if other._min is not None:
            self._min = other._min if self._min is None else \
                min(self._min, other._min)
        if other._max is not None:
            self._max = other._max if self._max is None else \
                max(self._max, other._max)
        if self._samples is not None and other._samples is not None and \
                len(self._samples) + len(other._samples) <= self.exact_limit:
            self._samples.extend(other._samples)
            return self
        if self._samples is not None:
            self._collapse()
        if other._samples is not None:
            for value in other._samples:
                if value == 0.0:
                    self._zeros += 1
                else:
                    key = self._key(value)
                    self._buckets[key] = self._buckets.get(key, 0) + 1
        else:
            self._zeros += other._zeros
            for key, n in other._buckets.items():
                self._buckets[key] = self._buckets.get(key, 0) + n
        return self

    @classmethod
    def merged(cls, estimators: Iterable["QuantileEstimator"],
               eps: Optional[float] = None,
               exact_limit: int = 512) -> "QuantileEstimator":
        """A fresh estimator holding the union of ``estimators``."""
        estimators = list(estimators)
        if eps is None:
            eps = estimators[0].eps if estimators else 0.01
        out = cls(eps=eps, exact_limit=exact_limit)
        for est in estimators:
            out.merge(est)
        return out

    def __repr__(self) -> str:
        mode = "exact" if self.is_exact else "sketch"
        return (f"<QuantileEstimator {mode} n={self._count} "
                f"eps={self.eps:g}>")
