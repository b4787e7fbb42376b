"""Micro-benchmarks for the memory-hierarchy hot path.

Times the layer in isolation — scalar cache access, range walks,
strided record scans, and the same scans issued as one scalar access
per line — so a change too small to move grid cells is still
measurable.  Standalone (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/perf/bench_cache_hotpath.py

Deterministic work, wall-clock measured with ``time.perf_counter``;
compare runs on the same machine only.
"""

from __future__ import annotations

import time

from repro.mem import Cache, CacheConfig
from repro.mem.hierarchy import build_host_hierarchy
from repro.sim.units import Clock

#: Bytes of sequential scan per measurement (64 K lines at 32 B).
SCAN_BYTES = 2 * 1024 * 1024
#: Records per strided measurement (the select/hashjoin pattern).
RECORDS = 20_000
RECORD_BYTES = 100


def _timed(label: str, fn, repeat: int = 3) -> float:
    best = min(_once(fn) for _ in range(repeat))
    print(f"{label:<44} {best * 1e3:8.2f} ms")
    return best


def _once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_cache_scalar_access():
    cache = Cache(CacheConfig("bench-l1", 32 * 1024, 32, 2))
    access = cache.access

    def run():
        for addr in range(0, SCAN_BYTES, 32):
            access(addr)
    return run


def bench_cache_int_access():
    cache = Cache(CacheConfig("bench-l1", 32 * 1024, 32, 2))
    _access = cache._access

    def run():
        for addr in range(0, SCAN_BYTES, 32):
            _access(addr)
    return run


def bench_cache_access_range():
    cache = Cache(CacheConfig("bench-l1", 32 * 1024, 32, 2))

    def run():
        for base in range(0, SCAN_BYTES, 64 * 1024):
            cache.access_range(base, 64 * 1024)
    return run


def bench_hierarchy_load_range(per_line: bool):
    hier = build_host_hierarchy(Clock(2e9))
    line = hier.l1d.config.line_size

    def run():
        for base in range(0, SCAN_BYTES, 64 * 1024):
            if per_line:
                for addr in range(base, base + 64 * 1024, line):
                    hier.load(addr)
            else:
                hier.load_range(base, 64 * 1024)
    return run


def bench_hierarchy_load_stride(per_line: bool):
    hier = build_host_hierarchy(Clock(2e9))

    def run():
        if per_line:
            for i in range(RECORDS):
                hier.load(i * RECORD_BYTES)
        else:
            hier.load_stride(0, RECORD_BYTES, RECORDS)
    return run


def main() -> None:
    print(f"scan = {SCAN_BYTES // 1024} KB sequential, "
          f"stride = {RECORDS} x {RECORD_BYTES} B records\n")
    _timed("Cache.access (public, per line)", bench_cache_scalar_access())
    _timed("Cache._access (int-coded, per line)", bench_cache_int_access())
    _timed("Cache.access_range", bench_cache_access_range())
    perline = _timed("hierarchy load per line",
                     bench_hierarchy_load_range(per_line=True))
    scan = _timed("hierarchy load_range",
                  bench_hierarchy_load_range(per_line=False))
    print(f"{'-> load_range speedup':<44} {perline / scan:7.2f} x")
    perline = _timed("hierarchy load per record",
                     bench_hierarchy_load_stride(per_line=True))
    scan = _timed("hierarchy load_stride",
                  bench_hierarchy_load_stride(per_line=False))
    print(f"{'-> load_stride speedup':<44} {perline / scan:7.2f} x")


if __name__ == "__main__":
    main()
