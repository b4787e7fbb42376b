"""Arrival generators: deterministic, correctly shaped, correctly rated."""

import pytest

from repro.traffic import ARRIVAL_KINDS, generate_schedule

_PS = 1_000_000_000_000


def _schedule(kind, seed=0, rate=5000.0, duration=0.05, **kw):
    return generate_schedule(kind, rate, duration, num_streams=16,
                             num_keys=64, zipf_exponent=1.1, seed=seed, **kw)


@pytest.mark.parametrize("kind", ARRIVAL_KINDS)
def test_same_seed_same_schedule(kind):
    assert _schedule(kind, seed=3) == _schedule(kind, seed=3)


@pytest.mark.parametrize("kind", ARRIVAL_KINDS)
def test_different_seed_different_schedule(kind):
    assert _schedule(kind, seed=3) != _schedule(kind, seed=4)


@pytest.mark.parametrize("kind", ARRIVAL_KINDS)
def test_schedule_shape(kind):
    schedule = _schedule(kind)
    assert schedule, "expected a non-empty schedule"
    assert [a.index for a in schedule] == list(range(len(schedule)))
    times = [a.t_ps for a in schedule]
    assert times == sorted(times)
    assert all(0 <= a.t_ps < int(0.05 * _PS) for a in schedule)
    assert all(0 <= a.stream < 16 for a in schedule)
    assert all(0 <= a.key_rank < 64 for a in schedule)


@pytest.mark.parametrize("kind", ARRIVAL_KINDS)
def test_mean_rate_is_close_to_requested(kind):
    # 5000 rps over 50 ms ~ 250 arrivals; all three processes are
    # rebalanced to the requested long-run mean.
    n = len(_schedule(kind))
    assert 150 <= n <= 350, n


def test_bursty_is_burstier_than_poisson():
    # Variance of per-millisecond counts: the MMPP on/off source must
    # exceed the memoryless one.
    def ms_count_var(kind):
        counts = [0] * 50
        for a in _schedule(kind):
            counts[min(a.t_ps * 1000 // _PS, 49)] += 1
        mean = sum(counts) / len(counts)
        return sum((c - mean) ** 2 for c in counts) / len(counts)

    assert ms_count_var("bursty") > ms_count_var("poisson")


def test_diurnal_ramps_up():
    # lambda ramps 0.5x -> 1.5x: the second half must hold more
    # arrivals than the first.
    schedule = _schedule("diurnal", rate=20000.0)
    half = int(0.025 * _PS)
    first = sum(1 for a in schedule if a.t_ps < half)
    second = len(schedule) - first
    assert second > first


def test_zipf_keys_are_skewed():
    schedule = _schedule("poisson", rate=20000.0)
    hot = sum(1 for a in schedule if a.key_rank == 0)
    # Rank 0 of Zipf(1.1) over 64 keys holds ~18% of the mass; uniform
    # would give ~1.6%.
    assert hot / len(schedule) > 0.08


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown arrival kind"):
        _schedule("weibull")


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        _schedule("poisson", rate=0.0)
    with pytest.raises(ValueError):
        _schedule("poisson", duration=-1.0)
    with pytest.raises(ValueError):
        # burst_fraction * burst_factor >= 1 leaves a negative off rate.
        _schedule("bursty", burst_factor=4.0, burst_fraction=0.3)


@pytest.mark.parametrize("bad", (
    dict(burst_fraction=0.0), dict(burst_fraction=1.0), dict(cycle_s=0.0),
    dict(burst_factor=10.0)), ids=("no-on", "no-off", "no-cycle", "zero-off"))
def test_unrealizable_bursts_raise_value_error(bad):
    with pytest.raises(ValueError):
        _schedule("bursty", duration=0.002, **bad)
    # Only the bursty source reads the on/off settings.
    assert _schedule("poisson", duration=0.002, **bad)
