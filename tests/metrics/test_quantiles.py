"""The streaming quantile estimator behind the service-traffic layer.

Three contracts matter: small samples are *exact* (numpy.percentile's
linear interpolation, reimplemented below as an independent reference),
large streams stay within the declared relative-error bound after
collapsing to log buckets, and merging per-stream estimators is
equivalent to having fed one estimator everything.
"""

import math
import random

import pytest

from repro.metrics import QuantileEstimator


def reference_quantile(values, q):
    """numpy.percentile(values, 100*q, method="linear"), dependency-free."""
    ordered = sorted(values)
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return ordered[int(h)]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (h - lo)


# ----------------------------------------------------------------------
# Exact regime
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0])
def test_small_samples_match_linear_interpolation_exactly(q):
    rng = random.Random(11)
    values = [rng.uniform(0.0, 1000.0) for _ in range(101)]
    est = QuantileEstimator()
    est.extend(values)
    assert est.is_exact
    assert est.quantile(q) == reference_quantile(values, q)


def test_exact_handles_duplicates_and_zeros():
    values = [0.0, 0.0, 1.0, 1.0, 1.0, 5.0]
    est = QuantileEstimator()
    est.extend(values)
    for q in (0.0, 0.2, 0.5, 0.8, 1.0):
        assert est.quantile(q) == reference_quantile(values, q)
    assert est.minimum == 0.0 and est.maximum == 5.0


def test_single_sample_every_quantile_is_it():
    est = QuantileEstimator()
    est.add(42.0)
    assert est.quantile(0.0) == est.quantile(0.5) == est.quantile(1.0) == 42.0


def test_empty_returns_none_and_summary_is_count_only():
    est = QuantileEstimator()
    assert est.quantile(0.5) is None
    assert est.mean is None
    assert est.summary() == {"count": 0.0}


def test_rejects_negative_and_nan():
    est = QuantileEstimator()
    with pytest.raises(ValueError):
        est.add(-1.0)
    with pytest.raises(ValueError):
        est.add(float("nan"))
    with pytest.raises(ValueError):
        est.quantile(1.5)


@pytest.mark.parametrize("exact_limit", [512, 2])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_rejects_infinity_in_both_regimes(exact_limit, value):
    """An infinite latency would read back as p50 = inf, then break the
    collapse into buckets; it is refused like a negative one."""
    est = QuantileEstimator(exact_limit=exact_limit)
    est.extend([1.0, 2.0, 3.0])
    assert est.is_exact == (exact_limit == 512)
    with pytest.raises(ValueError, match="finite"):
        est.add(value)
    assert est.count == 3
    assert est.maximum == 3.0
    est.add(4.0)  # still usable, and the sketch still collapses
    assert est.quantile(1.0) == pytest.approx(4.0, rel=est.eps)


# ----------------------------------------------------------------------
# Sketch regime: bounded relative error on large streams
# ----------------------------------------------------------------------
def test_large_stream_relative_error_is_bounded():
    eps = 0.01
    rng = random.Random(3)
    # Heavy-tailed, like latencies: several orders of magnitude.
    values = [math.exp(rng.gauss(2.0, 1.5)) for _ in range(20_000)]
    est = QuantileEstimator(eps=eps, exact_limit=512)
    est.extend(values)
    assert not est.is_exact
    for q in (0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999):
        truth = reference_quantile(values, q)
        got = est.quantile(q)
        assert abs(got - truth) <= 2.0 * eps * truth, (q, got, truth)


def test_sketch_extremes_clamp_to_observed_range():
    est = QuantileEstimator(exact_limit=8)
    values = [float(i) for i in range(1, 1001)]
    est.extend(values)
    assert est.quantile(0.0) >= est.minimum == 1.0
    assert est.quantile(1.0) <= est.maximum == 1000.0


def test_count_mean_total_survive_collapse():
    est = QuantileEstimator(exact_limit=4)
    est.extend([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert est.count == 6
    assert est.total == pytest.approx(21.0)
    assert est.mean == pytest.approx(3.5)


# ----------------------------------------------------------------------
# Merging across streams
# ----------------------------------------------------------------------
def test_merge_of_exact_estimators_stays_exact_and_correct():
    rng = random.Random(5)
    a_vals = [rng.uniform(0, 100) for _ in range(50)]
    b_vals = [rng.uniform(0, 100) for _ in range(60)]
    a, b = QuantileEstimator(), QuantileEstimator()
    a.extend(a_vals)
    b.extend(b_vals)
    merged = QuantileEstimator.merged([a, b])
    assert merged.is_exact
    everything = a_vals + b_vals
    for q in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert merged.quantile(q) == reference_quantile(everything, q)


def test_merge_equals_single_estimator_fed_everything():
    rng = random.Random(9)
    streams = [[math.exp(rng.gauss(1.0, 1.0)) for _ in range(2_000)]
               for _ in range(8)]
    parts = []
    for values in streams:
        est = QuantileEstimator(exact_limit=128)
        est.extend(values)
        parts.append(est)
    merged = QuantileEstimator.merged(parts, exact_limit=128)
    union = QuantileEstimator(exact_limit=128)
    for values in streams:
        union.extend(values)
    assert merged.count == union.count == 16_000
    assert merged.total == pytest.approx(union.total)
    # Same eps => identical bucket boundaries => identical quantiles.
    for q in (0.1, 0.5, 0.9, 0.99):
        assert merged.quantile(q) == union.quantile(q)


def test_merge_is_order_independent():
    rng = random.Random(13)
    streams = [[rng.uniform(0, 10) for _ in range(700)] for _ in range(4)]
    parts = []
    for values in streams:
        est = QuantileEstimator(exact_limit=64)
        est.extend(values)
        parts.append(est)
    forward = QuantileEstimator.merged(parts, exact_limit=64)
    backward = QuantileEstimator.merged(parts[::-1], exact_limit=64)
    for q in (0.25, 0.5, 0.95):
        assert forward.quantile(q) == backward.quantile(q)


def test_merge_rejects_mismatched_eps():
    a = QuantileEstimator(eps=0.01)
    b = QuantileEstimator(eps=0.02)
    with pytest.raises(ValueError):
        a.merge(b)


def test_summary_shape():
    est = QuantileEstimator()
    est.extend([1.0, 2.0, 3.0, 4.0])
    summary = est.summary((50.0, 95.0, 99.0))
    assert set(summary) == {"count", "mean", "p50", "p95", "p99", "max"}
    assert summary["count"] == 4.0
    assert summary["max"] == 4.0
