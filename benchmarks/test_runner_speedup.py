"""Runner-harness and DES hot-path speedups (PR acceptance criteria).

Four measurements:

* the full 9-spec x 4-case paper grid at ``parallel=4`` matches the
  serial pass field-for-field and, on a machine with >= 4 cores, runs
  >= 2.5x faster wall-clock;
* a second, cache-warmed invocation finishes in < 10% of the uncached
  serial time;
* the DES kernel's event-storm throughput (tuple heap entries pushed
  straight from ``Timeout`` + one inlined run loop), best of three
  timed drains;
* the tracing gate is free when disabled: two interleaved untraced
  event storms agree to within scheduler noise, and a traced storm
  that records one span per event stays within 2x
  (``tests/obs/test_gate.py`` shows an untraced run never reaches a
  collector).

Run with::

    pytest benchmarks/test_runner_speedup.py -s
"""

from __future__ import annotations

import os
import time

from repro.runner.cache import encode_case
from repro.runner.harness import ExperimentRunner
from repro.runner.spec import paper_grid
from repro.sim.core import Environment


def _snapshot(grid):
    """Lossless, order-stable encoding of a whole grid for comparison."""
    return [{label: encode_case(case)
             for label, case in result.cases.items()} for result in grid]


def test_parallel_grid_matches_serial_and_speeds_up(tmp_path):
    specs = paper_grid()

    start = time.perf_counter()
    serial = ExperimentRunner(parallel=1, cache=None).run_grid(specs)
    serial_s = time.perf_counter() - start

    cache_dir = tmp_path / "grid-cache"
    start = time.perf_counter()
    fanned = ExperimentRunner(parallel=4, cache=cache_dir).run_grid(specs)
    parallel_s = time.perf_counter() - start

    # Bit-identical regardless of worker count or machine.
    assert _snapshot(fanned) == _snapshot(serial)

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    print(f"\nserial {serial_s:.1f}s  parallel=4 {parallel_s:.1f}s  "
          f"speedup {speedup:.2f}x  (cores: {os.cpu_count()})")
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.5

    # Warm-cache rerun restores every cell without simulating.
    start = time.perf_counter()
    cached = ExperimentRunner(parallel=1, cache=cache_dir).run_grid(specs)
    cached_s = time.perf_counter() - start
    assert _snapshot(cached) == _snapshot(serial)
    print(f"cached rerun {cached_s:.2f}s "
          f"({cached_s / serial_s:.1%} of uncached serial)")
    assert cached_s < 0.10 * serial_s


def _event_storm(producers: int, events_each: int) -> int:
    env = Environment()

    def producer(env):
        for _ in range(events_each):
            yield env.timeout(100)

    for _ in range(producers):
        env.process(producer(env))
    env.run()
    return env.now


def test_event_loop_throughput():
    """Pure kernel drain: interleaved timeout storms, no app logic."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        now = _event_storm(16, 20_000)
        samples.append(time.perf_counter() - start)
        assert now == 20_000 * 100
    print(f"\nevent storm: best of 3 {min(samples) * 1e3:.1f} ms "
          f"({16 * 20_000 / min(samples) / 1e6:.2f} M events/s)")


def _traced_event_storm(producers: int, events_each: int) -> int:
    from repro.obs import TraceCollector

    env = Environment()
    trace = env.trace = TraceCollector()

    def producer(env):
        for _ in range(events_each):
            yield env.timeout(100)
            trace.span("producer", "tick", env.now - 100, 100)

    for _ in range(producers):
        env.process(producer(env))
    env.run()
    return len(env.trace)


def test_tracing_gate_overhead():
    """Wall-clock guard for the tracing gate.

    The < 2% "unchanged when disabled" criterion is guaranteed
    structurally — run() checks ``env.trace`` once, on entry, and an
    untraced run never reaches a collector
    (``tests/obs/test_gate.py``).  This test bounds what timing can
    honestly bound: interleaved untraced samples must agree to within
    scheduler noise, and a traced storm that records one span per
    event must stay within a small constant factor of the untraced one
    on a pure-kernel storm (real benchmarks, dominated by model work,
    see far less).
    """
    _event_storm(16, 2_000)          # warm-up
    untraced_a, untraced_b, traced = [], [], []
    for _ in range(7):
        for samples, fn in ((untraced_a, _event_storm),
                            (untraced_b, _event_storm),
                            (traced, _traced_event_storm)):
            start = time.perf_counter()
            fn(16, 20_000)
            samples.append(time.perf_counter() - start)

    untraced_s = min(min(untraced_a), min(untraced_b))
    drift = abs(min(untraced_a) - min(untraced_b)) / untraced_s
    overhead = min(traced) / untraced_s
    print(f"\nuntraced {untraced_s * 1e3:.1f}ms "
          f"(run-to-run drift {drift:.1%})  "
          f"traced {min(traced) * 1e3:.1f}ms ({overhead:.2f}x)")
    # Identical code measured twice: anything beyond scheduler noise
    # would mean the gate leaked into the untraced path.
    assert drift < 0.10
    # One list append per span keeps the traced storm within a small
    # constant factor even with nothing but the kernel to amortise it.
    assert overhead < 2.0
