"""Adaptive knee search vs the exhaustive sweep (``find_knee``).

The contract under test: on any monotone curve the adaptive bisection
returns the *same* knee as the exhaustive reference — every rate point
evaluated, then ``ServiceSweep.knee()`` — while running at most
⌈log2(n+1)⌉ simulations for an n-point grid; the sustained-prefix
definition makes non-monotone (noisy) curves report the first break,
never a sustained point beyond it; and a warm result cache makes a
repeated search cost zero new simulations.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import (GOODPUT_TOLERANCE, KneeSearch, ServiceResult,
                           ServiceSpec, ServiceSweep, find_knee,
                           sweep_offered_load)

#: Same small-but-real configuration the service tests use.
FAST = dict(app="grep", case="active", rate_rps=4000.0, duration_s=0.01,
            num_streams=8, num_keys=32, depth=16, workers=4, seed=5,
            slo_ms=5.0)

#: Counter keys excluded when comparing a search's verdict with a sweep's.
COUNTERS = ("sims", "evaluations")


def synthetic(rate: float, ok: bool) -> ServiceResult:
    """A ServiceResult that is (un)sustained purely via goodput."""
    offered = max(int(rate), 1)
    goodput = rate if ok else rate * 0.5
    return ServiceResult(
        name="synthetic", app="grep", case="active", topology="single",
        arrival="poisson", policy="drop", rate_rps=rate, seed=0,
        slo_ms=None, duration_ps=10**12, horizon_ps=10**12,
        offered=offered, admitted=offered, dropped=0, completed=offered,
        drop_rate=0.0, offered_rps=rate, throughput_rps=goodput,
        goodput_rps=goodput, slo_attainment=1.0,
        latency_us={"count": float(offered), "p50": 10.0, "p95": 10.0,
                    "p99": 10.0, "mean": 10.0, "max": 10.0},
        queue_delay_us={}, service_time_us={}, streams=1,
        worst_stream_p99_us=None)


def monotone(boundary_rps: float):
    """An evaluate() hook: sustained iff strictly under ``boundary_rps``."""
    return lambda point: synthetic(point.rate_rps,
                                   point.rate_rps < boundary_rps)


def verdict(search: KneeSearch) -> dict:
    return {k: v for k, v in search.knee().items() if k not in COUNTERS}


# ----------------------------------------------------------------------
# ServiceSweep.knee(): the sustained-prefix regression
# ----------------------------------------------------------------------
def test_knee_is_defined_on_the_sustained_prefix():
    # 1000 holds, 2000 breaks, 3000 "holds" again (noise): the knee is
    # 2000 and max sustainable is 1000 — the later sustained point must
    # not be reported as capacity the configuration already failed at.
    sweep = ServiceSweep(spec=ServiceSpec(**FAST), results=[
        synthetic(1000.0, True),
        synthetic(2000.0, False),
        synthetic(3000.0, True),
    ])
    knee = sweep.knee()
    assert knee["max_sustainable_rps"] == 1000.0
    assert knee["knee_rps"] == 2000.0
    assert knee["max_sustainable_rps"] < knee["knee_rps"]


def test_knee_when_everything_holds_or_breaks():
    spec = ServiceSpec(**FAST)
    held = ServiceSweep(spec=spec, results=[synthetic(r, True)
                                            for r in (1000.0, 2000.0)])
    assert held.knee()["knee_rps"] is None
    assert held.knee()["max_sustainable_rps"] == 2000.0
    broke = ServiceSweep(spec=spec, results=[synthetic(r, False)
                                             for r in (1000.0, 2000.0)])
    assert broke.knee()["knee_rps"] == 1000.0
    assert broke.knee()["max_sustainable_rps"] is None


def test_meets_slo_agrees_with_the_knee():
    # Completion and p99 hold, but goodput trails offered load: the
    # knee search names this point the knee, so it does not meet its SLO.
    broke = synthetic(1000.0, False)
    sweep = ServiceSweep(spec=ServiceSpec(**FAST), results=[broke])
    assert sweep.knee()["knee_rps"] == 1000.0
    assert broke.meets_slo() is False
    assert synthetic(1000.0, True).meets_slo() is True


# ----------------------------------------------------------------------
# find_knee on grids: adaptive == exhaustive sweep, at O(log) cost
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=24),
       boundary=st.integers(min_value=0, max_value=25))
def test_adaptive_matches_grid_on_any_monotone_curve(n, boundary):
    # Boundary index `boundary` clamps to [0, n]: every point below it
    # sustains, every point at/after it breaks — all monotone shapes
    # including all-held and all-broke.
    rates = [100.0 * (i + 1) for i in range(n)]
    cut = min(boundary, n)
    curve = monotone(rates[cut] if cut < n else rates[-1] + 1.0)
    spec = ServiceSpec(**FAST)
    oracle = ServiceSweep(spec, [curve(spec.at_rate(r)) for r in rates])
    adaptive = find_knee(spec, rates, evaluate=curve)
    assert verdict(adaptive) == oracle.knee()
    assert adaptive.sims <= math.ceil(math.log2(n + 1))


def test_adaptive_matches_grid_on_a_real_simulation():
    spec = ServiceSpec(**{**FAST, "slo_ms": 1.0})
    rates = (1000.0, 2000.0, 4000.0, 8000.0)
    exhaustive = sweep_offered_load(spec, rates)
    adaptive = find_knee(spec, rates)
    assert verdict(adaptive) == exhaustive.knee()
    assert exhaustive.rates() == list(rates)
    assert adaptive.sims <= 3  # ceil(log2(5))


def test_search_accounting_and_sweep_view():
    rates = [100.0 * (i + 1) for i in range(16)]
    search = find_knee(ServiceSpec(**FAST), rates,
                       evaluate=monotone(850.0))
    assert search.sims == search.evaluations == len(search.probes)
    assert search.sims <= 5  # ceil(log2(17)); this boundary takes 4
    assert search.cache_hits == 0
    assert search.knee_rps == 900.0
    assert search.best is not None and search.best.rate_rps == 800.0
    view = search.sweep()
    assert view.rates() == sorted(search.probes)


def test_cached_rerun_costs_zero_simulations(tmp_path):
    spec = ServiceSpec(**FAST)
    rates = (1000.0, 2000.0)
    cold = find_knee(spec, rates, cache=tmp_path)
    assert cold.sims > 0 and cold.cache_hits == 0
    warm = find_knee(spec, rates, cache=tmp_path)
    assert warm.sims == 0
    assert warm.cache_hits == warm.evaluations > 0
    assert warm.knee() == cold.knee() | {"sims": 0}


def test_grid_points_are_reusable_by_full_sweeps(tmp_path):
    # The adaptive search and sweep_offered_load share cache keys: a
    # sweep over the probed rates costs only the points the search
    # skipped.
    spec = ServiceSpec(**FAST)
    rates = (1000.0, 2000.0)
    search = find_knee(spec, rates, cache=tmp_path)
    sweep = sweep_offered_load(spec, rates, cache=tmp_path)
    by_rate = {r.rate_rps: r for r in search.results}
    for result in sweep.results:
        if result.rate_rps in by_rate:
            assert result.to_dict() == by_rate[result.rate_rps].to_dict()


# ----------------------------------------------------------------------
# find_knee on continuous ranges
# ----------------------------------------------------------------------
def test_continuous_search_brackets_the_boundary():
    search = find_knee(ServiceSpec(**{**FAST, "rate_rps": 500.0}),
                       resolution=50.0, evaluate=monotone(3500.0))
    assert search.knee_rps is not None
    # The reported knee is the first *unsustained* rate of the final
    # bracket: at or above the true boundary, within one resolution.
    assert 3500.0 <= search.knee_rps <= 3500.0 + 50.0
    assert search.best is not None
    assert search.best.rate_rps < 3500.0


def test_continuous_search_immediate_break_and_hi_cap():
    spec = ServiceSpec(**{**FAST, "rate_rps": 500.0})
    broke = find_knee(spec, evaluate=monotone(100.0))
    assert broke.knee_rps == 500.0 and broke.best is None
    held = find_knee(spec, hi=2000.0, evaluate=monotone(99999.0))
    assert held.knee_rps is None
    assert held.best is not None and held.best.rate_rps == 2000.0


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_find_knee_validation():
    spec = ServiceSpec(**FAST)
    with pytest.raises(ValueError, match="non-empty"):
        find_knee(spec, ())
    with pytest.raises(ValueError, match="lo must be positive"):
        find_knee(spec, lo=0.0, evaluate=monotone(1.0))
    with pytest.raises(ValueError, match="resolution"):
        find_knee(spec, resolution=-1.0, evaluate=monotone(1.0))


def test_goodput_tolerance_is_the_sustain_threshold():
    # Right at the tolerance the point still counts as sustained.
    result = synthetic(1000.0, True)
    result.goodput_rps = GOODPUT_TOLERANCE * result.offered_rps
    sweep = ServiceSweep(spec=ServiceSpec(**FAST), results=[result])
    assert sweep.knee()["knee_rps"] is None
