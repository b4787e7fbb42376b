"""Offered-load sweeps: saturation knees and max sustainable RPS.

An open-loop configuration is characterized by sweeping the offered
rate and watching where the latency/goodput curve breaks: below the
knee, goodput tracks offered load and p99 stays near the unloaded
service time; past it, queues (or drops) absorb the excess and the tail
explodes.  :func:`sweep_offered_load` runs one :class:`ServiceSpec`
across a rate grid — serially, through the shared warm process pool,
or against the result cache, all bit-identically — and
:meth:`ServiceSweep.knee` reports the largest offered rate of the
sustained *prefix* under a declared SLO.

:func:`find_knee` is the adaptive alternative: instead of simulating
the whole grid it brackets the saturation boundary — bisection over a
given grid, or geometric probing plus rate bisection on a continuous
range — so a knee costs O(log) service simulations.  The exhaustive
``sweep_offered_load(spec, rates).knee()`` is its reference; on
monotone curves the two return the same knee (proven by property test
in ``tests/traffic/test_sweep.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..metrics.report import render_table
from .service import (ServiceResult, ServiceSpec, _evaluate, _simulate,
                      _store, _sustained)

#: Continuous-range searches stop doubling after this many probes (a
#: configuration sustaining lo * 2**20 has no knee worth bracketing).
_MAX_DOUBLINGS = 20


def _sweep_worker(spec: ServiceSpec) -> Dict[str, object]:
    """Pool entry point: run one rate point, return the encoded result."""
    return _simulate(spec).to_dict()


def _verdict(slo_ms: Optional[float], best: Optional[ServiceResult],
             knee_rps: Optional[float]) -> Dict[str, Optional[float]]:
    """The knee verdict both :class:`ServiceSweep` and
    :class:`KneeSearch` report."""
    return {
        "slo_ms": slo_ms,
        "max_sustainable_rps": best.rate_rps if best else None,
        "goodput_rps": best.goodput_rps if best else None,
        "p99_us": best.latency_us.get("p99") if best else None,
        "knee_rps": knee_rps,
    }


@dataclass
class ServiceSweep:
    """Results of one offered-load sweep, ordered by offered rate."""

    spec: ServiceSpec
    results: List[ServiceResult] = field(default_factory=list)

    def rates(self) -> List[float]:
        return [result.rate_rps for result in self.results]

    def knee(self, slo_ms: Optional[float] = None,
             max_drop_rate: float = 0.01) -> Dict[str, Optional[float]]:
        """Locate the saturation knee under an SLO.

        A rate point is *sustained* per :func:`_sustained` (drops,
        completion, goodput tracking, and — when an SLO is declared via
        the argument or the spec's own ``slo_ms`` — p99 under it).  The
        knee is defined on the sustained **prefix**: scanning rates in
        ascending order, the first unsustained point is ``knee_rps``
        and ``max_sustainable_rps`` is the largest sustained rate
        *before* it.  A noisy sustained point beyond the knee does not
        count — the configuration already failed at a lower rate, so
        reporting a higher "max sustainable" would overstate capacity
        (and could make ``max_sustainable_rps`` exceed ``knee_rps``).
        ``knee_rps`` is ``None`` when the whole sweep held.
        """
        slo = self.spec.slo_ms if slo_ms is None else slo_ms
        best: Optional[ServiceResult] = None
        knee_rps: Optional[float] = None
        for result in sorted(self.results, key=lambda r: r.rate_rps):
            if not _sustained(result, slo, max_drop_rate):
                knee_rps = result.rate_rps
                break
            best = result
        return _verdict(slo, best, knee_rps)

    def table(self) -> str:
        """One aligned row per rate point (for EXPERIMENTS.md)."""
        rows = []
        for result in sorted(self.results, key=lambda r: r.rate_rps):
            rows.append([
                f"{result.rate_rps:g}",
                f"{result.offered_rps:.0f}",
                f"{result.goodput_rps:.0f}",
                f"{result.drop_rate:.3f}",
                f"{result.latency_us.get('p50', 0.0):.1f}",
                f"{result.latency_us.get('p95', 0.0):.1f}",
                f"{result.latency_us.get('p99', 0.0):.1f}",
            ])
        return (f"{self.spec.label}: offered-load sweep\n"
                + render_table(
                    ["rate", "offered", "goodput", "drop", "p50us",
                     "p95us", "p99us"], rows))


def sweep_offered_load(spec: ServiceSpec, rates: Sequence[float], *,
                       parallel: int = 1, cache=None,
                       pool=None) -> ServiceSweep:
    """Run ``spec`` at each offered rate in ``rates``.

    ``parallel > 1`` fans the rate points across the process-wide warm
    worker pool (:func:`repro.runner.pool.shared_pool`) — workers
    import once, keep their template caches, and are reused by every
    sweep and grid in the process; ``pool`` injects an explicit
    :class:`~repro.runner.pool.WorkerPool` instead.  ``cache``
    reuses/persists per-point results keyed by spec content + code
    version (omitted: :func:`repro.configure`'s default, as for
    ``repro.run``).  All three paths (serial, pool, cache-restored) produce
    field-identical results — the pool ships frozen specs out and
    lossless result dicts back, and the cache codec round-trips floats
    exactly.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")

    def simulate(misses: List[ServiceSpec]) -> List[ServiceResult]:
        if len(misses) < 2 or (parallel == 1 and pool is None):
            return [_simulate(point) for point in misses]
        workers = pool
        if workers is None:
            from ..runner.pool import shared_pool
            workers = shared_pool(min(parallel, len(misses)))
        return [ServiceResult.from_dict(payload)
                for payload in workers.map(_sweep_worker, misses)]

    evaluated = _evaluate([spec.at_rate(rate) for rate in rates],
                          _store(cache), simulate)
    return ServiceSweep(spec=spec,
                        results=[result for result, _ in evaluated])


# ----------------------------------------------------------------------
# Adaptive knee search
# ----------------------------------------------------------------------
@dataclass
class KneeSearch:
    """Everything one :func:`find_knee` call probed and concluded.

    ``sims`` counts simulations actually run, ``cache_hits`` the points
    restored from the result cache, and ``evaluations`` their sum (the
    number of distinct rate points consulted) — the accounting the
    ``⌈log2(n+1)⌉`` sims-per-knee bound in ``tests/traffic/test_sweep.py``
    and the repo benchmark's ``runner.knee_sims`` metric read.
    """

    spec: ServiceSpec
    slo_ms: Optional[float]
    max_drop_rate: float
    results: List[ServiceResult] = field(default_factory=list)
    #: Rates in evaluation order (the probe trace).
    probes: List[float] = field(default_factory=list)
    sims: int = 0
    evaluations: int = 0
    cache_hits: int = 0
    #: Largest sustained rate point of the prefix (None: none held).
    best: Optional[ServiceResult] = None
    #: First unsustained rate (None: everything probed held).
    knee_rps: Optional[float] = None

    def knee(self) -> Dict[str, Optional[float]]:
        """The knee verdict, in :meth:`ServiceSweep.knee`'s vocabulary
        plus the search's cost accounting."""
        return {**_verdict(self.slo_ms, self.best, self.knee_rps),
                "sims": self.sims, "evaluations": self.evaluations}

    def sweep(self) -> ServiceSweep:
        """The probed points as a :class:`ServiceSweep` (for tables)."""
        return ServiceSweep(
            spec=self.spec,
            results=sorted(self.results, key=lambda r: r.rate_rps))


def find_knee(spec: ServiceSpec,
              rates: Optional[Sequence[float]] = None, *,
              lo: Optional[float] = None, hi: Optional[float] = None,
              resolution: Optional[float] = None,
              slo_ms: Optional[float] = None,
              max_drop_rate: float = 0.01,
              cache=None,
              evaluate: Optional[Callable[[ServiceSpec],
                                          ServiceResult]] = None,
              ) -> KneeSearch:
    """Locate ``spec``'s saturation knee in O(log) service simulations.

    Two search domains:

    * **grid** (``rates`` given) — the knee is the sustained-prefix
      boundary of the sorted grid, found by bisecting the boundary
      index (⌈log2(n+1)⌉ probes for an n-point grid, e.g. 5 for 16
      points).  ``sweep_offered_load(spec, rates).knee()`` evaluates
      every point — the reference the search is tested against.  On a
      monotone curve both return the identical knee; on a non-monotone
      curve both honor the same prefix definition, though bisection may
      bracket a different noise-induced boundary than the full scan.
    * **continuous** (``rates`` omitted) — geometric doubling from
      ``lo`` (default: the spec's own ``rate_rps``) until a rate fails
      (or ``hi`` caps the range), then rate bisection until the bracket
      is narrower than ``resolution`` (default ``lo / 8``).

    Every distinct rate is evaluated once (memoized) and, under a
    result cache (``cache``, or when it is omitted
    :func:`repro.configure`'s default), consulted against / persisted
    to it under the same keys ``serve()`` and ``sweep_offered_load``
    use — so a warm cache makes a repeated search cost **zero** new
    simulations, and grid points simulated here are reusable by later
    full sweeps.  ``evaluate`` swaps the simulator for a synthetic
    curve (property tests); each call then counts as one sim.

    Returns a :class:`KneeSearch`; ``.knee()`` has the verdict and the
    sims/evaluations accounting, ``.sweep()`` the probed points.
    """
    slo = spec.slo_ms if slo_ms is None else slo_ms
    search = KneeSearch(spec=spec, slo_ms=slo, max_drop_rate=max_drop_rate)
    # A synthetic curve never touches the result cache.
    store = _store(cache) if evaluate is None else None
    simulate = (None if evaluate is None
                else lambda points: [evaluate(point) for point in points])
    memo: Dict[float, ServiceResult] = {}

    def run(rate: float) -> ServiceResult:
        result = memo.get(rate)
        if result is not None:
            return result
        [(result, simulated)] = _evaluate([spec.at_rate(rate)], store,
                                          simulate)
        if simulated:
            search.sims += 1
        else:
            search.cache_hits += 1
        search.evaluations += 1
        search.probes.append(rate)
        search.results.append(result)
        memo[rate] = result
        return result

    def held(rate: float) -> bool:
        return _sustained(run(rate), slo, max_drop_rate)

    if rates is not None:
        grid = sorted(set(float(rate) for rate in rates))
        if not grid:
            raise ValueError("rates must be non-empty")
        # Invariant: grid[lo_idx] sustained (or the virtual -1),
        # grid[hi_idx] unsustained (or the virtual end) — bisection over
        # the sustained-prefix boundary index.
        lo_idx, hi_idx = -1, len(grid)
        while hi_idx - lo_idx > 1:
            mid = (lo_idx + hi_idx) // 2
            if held(grid[mid]):
                lo_idx = mid
            else:
                hi_idx = mid
        if lo_idx >= 0:
            search.best = memo[grid[lo_idx]]
        if hi_idx < len(grid):
            search.knee_rps = grid[hi_idx]
        return search

    # Continuous range: double until something breaks, then bisect.
    low = float(spec.rate_rps if lo is None else lo)
    if low <= 0:
        raise ValueError(f"lo must be positive, got {low}")
    if hi is not None and hi < low:
        raise ValueError(f"hi must be >= lo, got hi={hi} < lo={low}")
    if resolution is None:
        resolution = low / 8
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    if not held(low):
        search.knee_rps = low
        return search
    search.best = memo[low]
    rate, high = low, None
    for _ in range(_MAX_DOUBLINGS):
        rate = rate * 2 if hi is None else min(rate * 2, hi)
        if held(rate):
            search.best = memo[rate]
            low = rate
            if hi is not None and rate >= hi:
                return search  # the whole requested range held
        else:
            high = rate
            break
    if high is None:
        return search  # never broke within the doubling budget
    while high - low > resolution:
        mid = (low + high) / 2
        if held(mid):
            search.best = memo[mid]
            low = mid
        else:
            high = mid
    search.knee_rps = high
    return search
