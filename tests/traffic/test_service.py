"""``repro.serve()``: determinism, caching, reporting, observability."""

import pytest

import repro
from repro.obs import TraceCollector
from repro.traffic import (ServiceSpec, make_service_spec, serve,
                           service_key, sweep_offered_load)
from repro.traffic.service import _simulate

#: Small-but-real configuration: fast enough for CI, busy enough to
#: exercise queueing (~40 requests through 4 workers).
FAST = dict(app="grep", case="active", rate_rps=4000.0, duration_s=0.01,
            num_streams=8, num_keys=32, depth=16, workers=4, seed=5,
            slo_ms=5.0)


@pytest.fixture(scope="module")
def fast_result():
    return serve(ServiceSpec(**FAST))


# ----------------------------------------------------------------------
# Spec construction and validation
# ----------------------------------------------------------------------
def test_spec_is_frozen_and_hashable():
    spec = ServiceSpec(**FAST)
    assert hash(spec) == hash(ServiceSpec(**FAST))
    with pytest.raises(Exception):
        spec.rate_rps = 1.0


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown service case"):
        ServiceSpec(case="turbo")
    with pytest.raises(ValueError, match="unknown arrival kind"):
        ServiceSpec(arrival="weibull")
    with pytest.raises(ValueError, match="unknown topology"):
        ServiceSpec(topology="torus")
    with pytest.raises(ValueError, match="unknown admission policy"):
        ServiceSpec(policy="tail-drop")
    with pytest.raises(ValueError, match="rate_rps"):
        ServiceSpec(rate_rps=0)
    with pytest.raises(ValueError, match="hosts >= 2"):
        ServiceSpec(topology="fat_tree", hosts=1)
    with pytest.raises(ValueError, match="slo_ms"):
        ServiceSpec(slo_ms=0.0)


@pytest.mark.parametrize("name", ("num_streams", "num_keys", "depth"))
def test_spec_rejects_empty_counts(name):
    with pytest.raises(ValueError, match=name):
        ServiceSpec(**{name: 0})


#: Bursty settings the on/off source cannot realize; each once crashed
#: mid-run (ZeroDivisionError, or a ValueError after the run started).
BAD_BURSTS = {
    "no-on-phase": dict(burst_fraction=0.0),
    "no-off-phase": dict(burst_fraction=1.0),
    "no-cycle": dict(cycle_s=0.0),
    "negative-off-rate": dict(burst_factor=20.0),
    "zero-off-rate": dict(burst_factor=10.0),
}


@pytest.mark.parametrize("bad", BAD_BURSTS.values(), ids=BAD_BURSTS)
def test_spec_rejects_unrealizable_bursts(bad):
    with pytest.raises(ValueError):
        ServiceSpec(arrival="bursty", duration_s=0.002, **bad)
    # Other arrival kinds ignore the on/off fields.
    ServiceSpec(arrival="poisson", duration_s=0.002, **bad)


def test_valid_specs_keep_their_fingerprints():
    from repro.runner.fingerprint import fingerprint
    assert fingerprint(ServiceSpec()) == (
        "d24a238ea97afd1e3a41b2c6052b7af148668be7aebb61b5cbf13e21db594ead")
    assert fingerprint(ServiceSpec(
        arrival="bursty", burst_factor=8.0, burst_fraction=0.05,
        cycle_s=0.002)) == (
        "ff6341df5150c92148410a301af309999e0420144c67c1958e0dbdd081e04ec6")
    assert fingerprint(ServiceSpec(arrival="diurnal", burst_fraction=0.0)) == (
        "31b5e1a15616b038b8d5b1ff5bc7f79a6af5a8cc43fdf8636f8ee37052ece693")


def test_make_service_spec_normalizes_overrides():
    spec = make_service_spec("grep", overrides={"num_disks": 16},
                             rate_rps=100.0)
    assert spec.overrides == (("num_disks", 16),)
    passthrough = make_service_spec(spec)
    assert passthrough is spec
    with pytest.raises(ValueError, match="inside the ServiceSpec"):
        make_service_spec(spec, rate_rps=200.0)


def test_at_rate_changes_only_the_rate():
    spec = ServiceSpec(**FAST)
    faster = spec.at_rate(9000.0)
    assert faster.rate_rps == 9000.0
    assert faster.at_rate(spec.rate_rps) == spec


def test_service_key_tracks_content():
    a = ServiceSpec(**FAST)
    b = ServiceSpec(**{**FAST, "seed": 6})
    assert service_key(a) == service_key(ServiceSpec(**FAST))
    assert service_key(a) != service_key(b)


# ----------------------------------------------------------------------
# Determinism and caching
# ----------------------------------------------------------------------
def test_serve_is_deterministic(fast_result):
    again = serve(ServiceSpec(**FAST))
    assert again.to_dict() == fast_result.to_dict()


def test_cache_round_trip_is_bit_identical(fast_result, tmp_path):
    warm = serve(ServiceSpec(**FAST), cache=tmp_path)
    restored = serve(ServiceSpec(**FAST), cache=tmp_path)
    assert warm.to_dict() == fast_result.to_dict()
    assert restored.to_dict() == fast_result.to_dict()


def test_result_codec_is_lossless(fast_result):
    from repro.traffic import ServiceResult
    import json

    payload = json.loads(json.dumps(fast_result.to_dict()))
    assert ServiceResult.from_dict(payload).to_dict() == \
        fast_result.to_dict()


def test_tracing_does_not_change_the_measurement(fast_result):
    collector = TraceCollector()
    traced = serve(ServiceSpec(**FAST), trace=collector)
    assert traced.to_dict() == fast_result.to_dict()


# ----------------------------------------------------------------------
# Measured quantities
# ----------------------------------------------------------------------
def test_accounting_identities(fast_result):
    r = fast_result
    assert r.offered == r.admitted + r.dropped
    assert r.completed == r.admitted
    assert r.streams >= 1
    assert r.latency_us["count"] == float(r.completed)
    assert 0.0 <= r.slo_attainment <= 1.0
    assert r.horizon_ps >= r.duration_ps
    # Latency includes queue delay and service time (plus network).
    assert r.latency_us["p50"] > r.service_time_us["p50"] * 0.5
    assert r.admission["offered"] == float(r.offered)


def test_latency_fields_present(fast_result):
    for series in (fast_result.latency_us, fast_result.queue_delay_us,
                   fast_result.service_time_us):
        for key in ("count", "mean", "p50", "p95", "p99", "max"):
            assert key in series


def test_normal_and_active_differ():
    normal = serve(ServiceSpec(**{**FAST, "case": "normal"}))
    active = serve(ServiceSpec(**FAST))
    assert normal.to_dict() != active.to_dict()


def test_drop_policy_sheds_under_overload():
    overload = ServiceSpec(**{**FAST, "rate_rps": 50000.0, "depth": 4,
                              "workers": 1})
    result = serve(overload)
    assert result.dropped > 0
    assert result.drop_rate > 0.0
    assert not result.meets_slo(max_drop_rate=0.01)


def test_backpressure_never_drops():
    result = serve(ServiceSpec(**{**FAST, "rate_rps": 20000.0,
                                  "policy": "backpressure", "depth": 4}))
    assert result.dropped == 0
    assert result.completed == result.offered


# ----------------------------------------------------------------------
# Observability: the request lifecycle emits spans
# ----------------------------------------------------------------------
def test_request_lifecycle_instants():
    collector = TraceCollector()
    result = serve(ServiceSpec(**FAST), trace=collector)
    names = [e.name for e in collector.events if e.component == "traffic"]
    for name in ("service.arrival", "service.admit", "service.dispatch",
                 "service.complete"):
        assert names.count(name) > 0, name
    assert names.count("service.arrival") == result.offered
    assert names.count("service.admit") == result.admitted
    assert names.count("service.complete") == result.completed


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_report_latency_renders(fast_result):
    text = fast_result.report().latency()
    assert "latency (us)" in text
    assert "queue delay (us)" in text
    assert "p99" in text
    assert "goodput RPS" in text
    assert "SLO (ms)" in text
    assert fast_result.report().render()  # full render works too


def test_repro_namespace_exports():
    assert repro.serve is serve
    assert repro.ServiceSpec is ServiceSpec
    spec = repro.make_service_spec("grep", rate_rps=10.0)
    assert isinstance(spec, repro.ServiceSpec)


# ----------------------------------------------------------------------
# Offered-load sweeps
# ----------------------------------------------------------------------
def test_sweep_knee_on_one_switch():
    spec = ServiceSpec(**{**FAST, "slo_ms": 1.0})
    sweep = sweep_offered_load(spec, (1000.0, 4000.0))
    assert sweep.rates() == [1000.0, 4000.0]
    knee = sweep.knee()
    assert knee["slo_ms"] == 1.0
    assert set(knee) == {"slo_ms", "max_sustainable_rps", "goodput_rps",
                         "p99_us", "knee_rps"}
    assert "p99us" in sweep.table()


def test_sweep_uses_cache(tmp_path):
    spec = ServiceSpec(**FAST)
    first = sweep_offered_load(spec, (1000.0, 2000.0), cache=tmp_path)
    second = sweep_offered_load(spec, (1000.0, 2000.0), cache=tmp_path)
    assert [r.to_dict() for r in first.results] == \
        [r.to_dict() for r in second.results]


def test_configured_cache_reaches_the_service_layer(tmp_path):
    """With ``cache`` omitted, serve, sweeps and knee searches use
    ``repro.configure``'s default cache, as ``repro.run`` does."""
    from repro.traffic import find_knee

    spec = ServiceSpec(**FAST)
    saved = repro.configure()
    try:
        repro.configure(cache=str(tmp_path))
        serve(spec)
        assert len(repro.ResultCache(tmp_path)) == 1
        sweep_offered_load(spec, (1000.0, 2000.0))
        assert len(repro.ResultCache(tmp_path)) == 3
        assert find_knee(spec, (1000.0, 2000.0, 4000.0)).sims == 0
    finally:
        repro.configure(**saved)


def test_simulate_equals_serve():
    # The pool entry point and the front door agree exactly.
    spec = ServiceSpec(**FAST)
    assert _simulate(spec).to_dict() == serve(spec).to_dict()
