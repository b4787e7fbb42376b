"""Deterministic open-loop arrival schedules.

Three arrival processes, all seeded through the :mod:`repro.faults`
stream-seed discipline (one sha256-derived :class:`random.Random` per
named draw, so the arrival times, stream assignment, and key popularity
are independent streams of one master seed):

* ``poisson`` — memoryless arrivals at a constant rate;
* ``bursty`` — an MMPP on/off source: exponential on/off phases, the
  on-phase running ``burst_factor`` hotter, the off-phase cooled so the
  *mean* rate stays the requested one;
* ``diurnal`` — a linear ramp from ``0.5x`` to ``1.5x`` the requested
  rate over the window (a compressed day), realized by thinning.

A schedule is generated up front as a plain list of :class:`Arrival`
records — picoseconds, stream id, Zipf key rank — so the serial,
parallel, and cache-restored execution paths all consume the identical
request sequence.  Key popularity reuses the inverse-CDF Zipf sampler
from :mod:`repro.workloads.zipf`.
"""

from __future__ import annotations

import bisect
import random
from typing import List, NamedTuple

from ..faults.injector import stream_seed
from ..workloads.zipf import zipf_cdf

#: Supported arrival process kinds.
ARRIVAL_KINDS = ("poisson", "bursty", "diurnal")

#: One simulated second, in picoseconds.
_SECOND_PS = 1_000_000_000_000


class Arrival(NamedTuple):
    """One client request: when, from which stream, for which key."""

    index: int
    t_ps: int
    stream: int
    key_rank: int


def check_bursty(burst_factor: float, burst_fraction: float,
                 cycle_s: float) -> None:
    """Reject on/off settings the ``bursty`` source cannot realize."""
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError(
            f"burst_fraction must be in (0, 1), got {burst_fraction}")
    if cycle_s <= 0:
        raise ValueError(f"cycle_s must be positive, got {cycle_s}")
    if burst_fraction * burst_factor >= 1.0:
        # The off phase would need a zero or negative rate.
        raise ValueError(
            f"burst_fraction * burst_factor must be < 1 "
            f"(got {burst_fraction} * {burst_factor})")


def _arrival_seconds(kind: str, rate_rps: float, duration_s: float,
                     rng: random.Random, burst_factor: float,
                     burst_fraction: float, cycle_s: float) -> List[float]:
    """Raw arrival instants in seconds over ``[0, duration_s)``."""
    times: List[float] = []
    if kind == "poisson":
        t = rng.expovariate(rate_rps)
        while t < duration_s:
            times.append(t)
            t += rng.expovariate(rate_rps)
        return times

    if kind == "bursty":
        # MMPP on/off: rate_on = burst_factor * rate during the on
        # phase; rate_off rebalanced so the long-run mean is rate_rps.
        f = burst_fraction
        rate_on = burst_factor * rate_rps
        rate_off = rate_rps * (1.0 - f * burst_factor) / (1.0 - f)
        phase_rng = random.Random(rng.getrandbits(64))
        on = True
        phase_end = phase_rng.expovariate(1.0 / (f * cycle_s))
        t = 0.0
        while t < duration_s:
            rate = rate_on if on else rate_off
            gap = rng.expovariate(rate) if rate > 0 else duration_s
            if t + gap >= phase_end:
                t = phase_end
                on = not on
                mean = (f if on else (1.0 - f)) * cycle_s
                phase_end = t + phase_rng.expovariate(1.0 / mean)
                continue
            t += gap
            if t < duration_s:
                times.append(t)
        return times

    if kind == "diurnal":
        # Thinning against the peak rate 1.5x; lambda(t) ramps
        # 0.5x -> 1.5x so the window's mean is exactly rate_rps.
        peak = 1.5 * rate_rps
        t = 0.0
        while True:
            t += rng.expovariate(peak)
            if t >= duration_s:
                return times
            lam = rate_rps * (0.5 + t / duration_s)
            if rng.random() * peak < lam:
                times.append(t)

    raise ValueError(f"unknown arrival kind {kind!r}; "
                     f"known: {ARRIVAL_KINDS}")


def generate_schedule(kind: str, rate_rps: float, duration_s: float, *,
                      num_streams: int, num_keys: int,
                      zipf_exponent: float, seed: int,
                      burst_factor: float = 4.0,
                      burst_fraction: float = 0.1,
                      cycle_s: float = 0.005) -> List[Arrival]:
    """The full deterministic request schedule for one service run."""
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    if num_streams < 1:
        raise ValueError(f"num_streams must be >= 1, got {num_streams}")
    if num_keys < 1:
        raise ValueError(f"num_keys must be >= 1, got {num_keys}")
    if kind == "bursty":
        check_bursty(burst_factor, burst_fraction, cycle_s)
    gap_rng = random.Random(stream_seed(seed, f"traffic/arrivals/{kind}"))
    stream_rng = random.Random(stream_seed(seed, "traffic/streams"))
    key_rng = random.Random(stream_seed(seed, "traffic/keys"))
    cdf = zipf_cdf(num_keys, zipf_exponent)
    seconds = _arrival_seconds(kind, rate_rps, duration_s, gap_rng,
                               burst_factor, burst_fraction, cycle_s)
    return [Arrival(index, int(round(t * _SECOND_PS)),
                    stream_rng.randrange(num_streams),
                    bisect.bisect_left(cdf, key_rng.random()))
            for index, t in enumerate(seconds)]
