"""Unit tests for the memory hierarchy's stall-time accounting."""

import copy
from collections import Counter

import pytest

from repro.apps.hashjoin import HashJoinApp
from repro.mem import (
    TLB,
    Cache,
    CacheConfig,
    MemoryHierarchy,
    Rdram,
    TLBConfig,
    build_host_hierarchy,
    build_switch_hierarchy,
    hierarchy,
)
from repro.sim import Clock

from .per_line import per_line, state

HOST_CLOCK = Clock(2_000_000_000)
SWITCH_CLOCK = Clock(500_000_000)


def test_host_hierarchy_geometry():
    hier = build_host_hierarchy(HOST_CLOCK)
    assert hier.l1d.config.size_bytes == 32 * 1024
    assert hier.l2.config.size_bytes == 512 * 1024
    assert hier.l2.config.line_size == 128
    assert hier.dtlb.config.entries == 64


def test_database_scaled_hierarchy():
    hier = build_host_hierarchy(HOST_CLOCK, scaled_for_database=True)
    assert hier.l1d.config.size_bytes == 8 * 1024
    assert hier.l2.config.size_bytes == 64 * 1024


def test_switch_hierarchy_geometry():
    hier = build_switch_hierarchy(SWITCH_CLOCK)
    assert hier.l1d.config.size_bytes == 1024
    assert hier.l1i.config.size_bytes == 4096
    assert hier.l2 is None
    assert hier.dtlb is None


def test_l1_hit_has_no_stall():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load(0x1000)  # warm
    assert hier.load(0x1000) == 0


def test_l2_hit_stall_is_cheaper_than_memory():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load(0x1000)          # fills L1 and L2 (cold: memory latency)
    # Evict from tiny L1 set by touching conflicting lines, keep L2 warm.
    cold = hier.load(0x1000 + hier.l1d.config.size_bytes)
    hier.load(0x1000 + 2 * hier.l1d.config.size_bytes)
    l2_hit = hier.load(0x1000)
    assert 0 < l2_hit < cold


def test_load_miss_charges_memory_latency():
    hier = build_host_hierarchy(HOST_CLOCK)
    stall = hier.load(0x5000)
    # At least the RDRAM page-miss latency.
    assert stall >= hier.memory.config.page_hit_ps


def test_store_miss_partially_overlapped():
    hier = build_host_hierarchy(HOST_CLOCK)
    load_stall = hier.load(0x10000)
    store_stall = hier.store(0x20000)
    assert store_stall < load_stall


def test_switch_store_miss_blocks_fully():
    hier = build_switch_hierarchy(SWITCH_CLOCK)
    load_stall = hier.load(0x10000)
    store_stall = hier.store(0x20000)
    # One outstanding request: stores stall like loads (same cold path).
    assert store_stall == pytest.approx(load_stall, rel=0.2)


def test_prefetch_never_stalls_but_warms():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.prefetch(0x9000)
    assert hier.total_stall_ps == 0
    assert hier.load(0x9000) == 0


def test_tlb_miss_adds_stall():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load(0x0)
    base_tlb_stall = hier.tlb_stall_ps
    assert base_tlb_stall > 0  # cold TLB miss walked the page table
    hier.load(0x20)  # same page: no new TLB stall
    assert hier.tlb_stall_ps == base_tlb_stall


def test_ifetch_uses_instruction_cache():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.ifetch(0x40_0000)
    assert hier.l1i.stats.accesses == 1
    assert hier.l1d.stats.accesses >= 0  # page walk may touch L1D


def test_load_range_walks_lines():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load_range(0, 256)
    assert hier.l1d.stats.accesses >= 8  # 256/32 lines


def test_total_stall_sums_components():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load(0x0)
    hier.store(0x100000)
    hier.ifetch(0x200000)
    assert hier.total_stall_ps == (hier.load_stall_ps + hier.store_stall_ps
                                   + hier.ifetch_stall_ps + hier.tlb_stall_ps)


def test_reset_stats_clears_counters_keeps_contents():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load(0x1000)
    hier.reset_stats()
    assert hier.total_stall_ps == 0
    assert hier.l1d.stats.accesses == 0
    assert hier.load(0x1000) == 0  # still cached


def test_sequential_scan_misses_at_line_granularity():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load_range(0x100000, 4096)
    # 4 KB / 32 B L1 lines = 128 scan misses, plus one miss from the
    # page-table walk of the single TLB miss (its second ref hits).
    assert hier.l1d.stats.misses == 129
    # L2 fetches 128 B lines: 32 scan misses + 1 page-walk miss.
    assert hier.l2.stats.misses == 33


# ----------------------------------------------------------------------
# Scan path vs the per-line oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("build", [build_host_hierarchy,
                                   build_switch_hierarchy])
@pytest.mark.parametrize("write", [False, True])
def test_batched_range_matches_scalar(build, write):
    clock = HOST_CLOCK if build is build_host_hierarchy else SWITCH_CLOCK
    fast = build(clock)
    ref = per_line(build(clock))
    op_fast = fast.store_range if write else fast.load_range
    op_ref = ref.store_range if write else ref.load_range
    # Unaligned starts, page-boundary straddles, re-scans, empty ranges.
    spans = [(0x100010, 5000), (0x100010, 5000), (0x200000, 32),
             (0x0FF0, 64), (0x300007, 0), (0x7FFE0, 100000)]
    for addr, nbytes in spans:
        before = copy.deepcopy(state(fast))
        assert op_fast(addr, nbytes) == op_ref(addr, nbytes)
        assert state(fast) == state(ref)
        if nbytes == 0:
            assert state(fast) == before


@pytest.mark.parametrize("stride", [4, 32, 100, 4096, 5000])
def test_batched_stride_matches_scalar(stride):
    fast = build_host_hierarchy(HOST_CLOCK)
    ref = per_line(build_host_hierarchy(HOST_CLOCK))
    for addr, count in [(0x100013, 700), (0x100013, 700), (0x5000, 1)]:
        assert (fast.load_stride(addr, stride, count)
                == ref.load_stride(addr, stride, count))
        assert (fast.store_stride(addr, stride, count)
                == ref.store_stride(addr, stride, count))
        assert state(fast) == state(ref)


def test_stride_zero_count_is_noop():
    hier = build_host_hierarchy(HOST_CLOCK)
    assert hier.load_stride(0x1000, 100, 0) == 0
    assert hier.l1d.stats.accesses == 0


@pytest.mark.parametrize("build", [build_host_hierarchy,
                                   build_switch_hierarchy])
def test_access_many_matches_scalar(build):
    clock = HOST_CLOCK if build is build_host_hierarchy else SWITCH_CLOCK
    fast = build(clock)
    ref = per_line(build(clock))
    addrs = [0x2000_0000 + (i * 7919) % 65536 for i in range(1500)]
    writes = [i % 3 == 0 for i in range(1500)]
    for flags in (writes, False, True):
        assert fast.access_many(addrs, flags) == ref.access_many(addrs, flags)
        assert state(fast) == state(ref)


def test_line_spanning_pages_is_rejected():
    with pytest.raises(ValueError, match="span"):
        MemoryHierarchy(l1d=Cache(CacheConfig("L1D", 1024, 256, 2)),
                        l1i=Cache(CacheConfig("L1I", 1024, 32, 2)),
                        memory=Rdram(), clock=HOST_CLOCK,
                        dtlb=TLB(TLBConfig("TLB", page_size=128)))


# ----------------------------------------------------------------------
# Which decider runs
# ----------------------------------------------------------------------
def _decided(run):
    before = Counter(hierarchy.DECIDED)
    run()
    after = Counter(hierarchy.DECIDED)
    after.subtract(before)
    return after


#: The decider the hierarchy picks for long sequences of 2-way caches.
LONG = "walk" if hierarchy._np is None else "numpy"


def test_host_range_takes_the_expected_decider():
    """A 64 KB host scan is 2,048 lines: numpy decides it when it imports."""
    hier = build_host_hierarchy(HOST_CLOCK)
    decided = _decided(lambda: hier.load_range(0x100000, 64 * 1024))
    assert decided[LONG + ".sequences"] == 1
    assert decided[LONG + ".accesses"] == 2048
    # Counters stay plain ints (results are JSON-serialized).
    counters = [hier.load_stall_ps, hier.tlb_stall_ps, *hier.memory._open_pages]
    for stats in (hier.l1d.stats, hier.l2.stats, hier.dtlb.stats,
                  hier.memory.stats):
        counters += vars(stats).values()
    assert all(type(value) is int for value in counters)


def test_short_sequences_walk():
    hier = build_host_hierarchy(HOST_CLOCK)
    count = hierarchy.NUMPY_MIN_ACCESSES - 1
    decided = _decided(lambda: hier.load_stride(0x100000, 128, count))
    assert decided["walk.sequences"] == 1
    assert decided["numpy.sequences"] == 0


def test_hashjoin_normal_case_takes_the_expected_decider():
    """Without this, a silent fallback to the walk passes every
    correctness test and loses the numpy decider's speed."""
    app = HashJoinApp(scale=1 / 256)
    config = app.cluster_config().with_case(active=False, prefetch=False)
    decided = _decided(lambda: app.run_case(config))
    assert decided[LONG + ".sequences"] > 0
    assert decided[LONG + ".accesses"] > 10_000
    if LONG == "numpy":
        assert decided["walk.sequences"] == 0
