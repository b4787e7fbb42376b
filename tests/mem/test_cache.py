"""Unit and property tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import Cache, CacheConfig


def make_cache(size=1024, line=32, assoc=2, name="test"):
    return Cache(CacheConfig(name, size, line, assoc))


def test_config_geometry():
    config = CacheConfig("c", 32 * 1024, 32, 2)
    assert config.num_sets == 512


def test_config_rejects_bad_sizes():
    with pytest.raises(ValueError):
        CacheConfig("c", 0, 32, 2)
    with pytest.raises(ValueError):
        CacheConfig("c", 100, 32, 2)  # not divisible
    with pytest.raises(ValueError):
        CacheConfig("c", 1024, 24, 2)  # line not power of two


def test_cold_miss_then_hit():
    cache = make_cache()
    assert not cache.access(0x1000).hit
    assert cache.access(0x1000).hit


def test_same_line_different_offsets_hit():
    cache = make_cache(line=32)
    cache.access(0x1000)
    assert cache.access(0x101F).hit
    assert not cache.access(0x1020).hit


def test_lru_eviction_order():
    # 2-way: third distinct tag in a set evicts the least recently used.
    cache = make_cache(size=64, line=32, assoc=2)  # 1 set
    cache.access(0x0)    # A
    cache.access(0x20)   # B
    cache.access(0x0)    # touch A -> B is LRU
    result = cache.access(0x40)  # C evicts B
    assert not result.hit
    assert cache.contains(0x0)
    assert not cache.contains(0x20)
    assert cache.contains(0x40)


def test_dirty_eviction_reports_writeback():
    cache = make_cache(size=64, line=32, assoc=2)
    cache.access(0x0, write=True)
    cache.access(0x20)
    result = cache.access(0x40)  # evicts dirty line A
    assert result.writeback
    assert cache.stats.writebacks == 1


def test_clean_eviction_no_writeback():
    cache = make_cache(size=64, line=32, assoc=2)
    cache.access(0x0)
    cache.access(0x20)
    result = cache.access(0x40)
    assert not result.writeback


def test_write_hit_marks_dirty():
    cache = make_cache(size=64, line=32, assoc=2)
    cache.access(0x0)              # clean fill
    cache.access(0x0, write=True)  # dirty it
    cache.access(0x20)
    result = cache.access(0x40)    # evict A
    assert result.writeback


def test_touch_range_counts_misses():
    cache = make_cache(size=4096, line=32, assoc=2)
    assert cache.touch_range(0, 128) == 4
    assert cache.touch_range(0, 128) == 0


def test_touch_range_unaligned_start():
    cache = make_cache(size=4096, line=32, assoc=2)
    # 16..80 spans three 32-byte lines (0, 32, 64).
    assert cache.touch_range(16, 64) == 3


def test_touch_range_empty():
    cache = make_cache()
    assert cache.touch_range(0, 0) == 0


def test_empty_range_at_unaligned_address_touches_nothing():
    cache = make_cache()
    assert cache.access_range(5, 0, write=True) == (0, 0)
    assert cache.touch_range(0x107, 0) == 0
    assert cache.stats.accesses == 0
    assert not cache.contains(0)


def test_flush_empties_cache():
    cache = make_cache()
    cache.access(0x0, write=True)
    cache.access(0x100)
    dirty = cache.flush()
    assert dirty == 1
    assert not cache.contains(0x0)
    assert not cache.contains(0x100)


def test_flush_reports_dirty_lines_as_writebacks():
    """A line dying by flush counts in the same writeback traffic
    counter as a line dying by eviction."""
    cache = make_cache(size=4096, line=32, assoc=2)
    cache.access(0x0, write=True)
    cache.access(0x40, write=True)
    cache.access(0x80)
    assert cache.stats.writebacks == 0
    assert cache.flush() == 2
    assert cache.stats.writebacks == 2
    # A second flush finds nothing dirty.
    assert cache.flush() == 0
    assert cache.stats.writebacks == 2


def test_flush_then_eviction_writebacks_accumulate():
    cache = make_cache(size=64, line=32, assoc=2)  # 1 set
    cache.access(0x0, write=True)
    cache.flush()
    cache.access(0x0, write=True)
    cache.access(0x20)
    cache.access(0x40)  # evicts dirty 0x0
    assert cache.stats.writebacks == 2


def test_single_set_geometry():
    """num_sets == 1: the whole cache is one LRU stack."""
    cache = make_cache(size=128, line=32, assoc=4)
    assert cache.config.num_sets == 1
    for addr in (0x0, 0x20, 0x40, 0x60):
        assert not cache.access(addr).hit
    for addr in (0x0, 0x20, 0x40, 0x60):
        assert cache.contains(addr)
    cache.access(0x0)                 # touch A -> LRU is 0x20
    assert not cache.access(0x80).hit  # evicts 0x20
    assert cache.contains(0x0)
    assert not cache.contains(0x20)
    assert cache.stats.evictions == 1


def test_single_set_range_walk():
    cache = make_cache(size=128, line=32, assoc=4)
    misses, writebacks = cache.access_range(0, 256, write=True)
    assert misses == 8
    # 8 lines through a 4-way single set: 4 dirty evictions.
    assert writebacks == 4
    assert cache.stats.evictions == 4


def test_assoc_1_direct_mapped():
    """assoc == 1: any set conflict evicts immediately."""
    cache = make_cache(size=64, line=32, assoc=1)
    assert cache.config.num_sets == 2
    assert not cache.access(0x0).hit
    assert cache.access(0x0).hit
    result = cache.access(0x40)  # same set as 0x0 (2 sets, 32 B lines)
    assert not result.hit
    assert not cache.contains(0x0)
    assert cache.contains(0x40)
    assert cache.stats.evictions == 1


def test_assoc_1_dirty_conflict_writes_back():
    cache = make_cache(size=64, line=32, assoc=1)
    cache.access(0x0, write=True)
    result = cache.access(0x40)
    assert result.writeback
    assert cache.stats.writebacks == 1


def test_assoc_1_range_matches_scalar():
    """access_range on a direct-mapped cache equals per-line accesses."""
    batched = make_cache(size=64, line=32, assoc=1)
    scalar = make_cache(size=64, line=32, assoc=1)
    for base in (0, 64, 0, 128):
        misses, writebacks = batched.access_range(base, 128, write=True)
        s_misses = s_writebacks = 0
        for addr in range(base, base + 128, 32):
            result = scalar.access(addr, write=True)
            s_misses += 0 if result.hit else 1
            s_writebacks += 1 if result.writeback else 0
        assert (misses, writebacks) == (s_misses, s_writebacks)
    assert vars(batched.stats) == vars(scalar.stats)
    assert batched.sets() == scalar.sets()


def test_stats_accumulate():
    cache = make_cache()
    cache.access(0x0)
    cache.access(0x0)
    cache.access(0x40)
    assert cache.stats.accesses == 3
    assert cache.stats.hits == 1
    assert cache.stats.misses == 2
    assert cache.stats.miss_rate == pytest.approx(2 / 3)


def test_working_set_fits_no_capacity_misses():
    # 1 KB cache, 32 B lines: a 512 B working set loops with only cold misses.
    cache = make_cache(size=1024, line=32, assoc=2)
    for _ in range(10):
        for addr in range(0, 512, 32):
            cache.access(addr)
    assert cache.stats.misses == 16  # cold only


def test_thrashing_working_set_always_misses():
    # Direct-mapped 64 B cache with two addresses mapping to the same set.
    cache = make_cache(size=32, line=32, assoc=1)
    for _ in range(5):
        cache.access(0x0)
        cache.access(0x20)
    assert cache.stats.hits == 0


@given(
    addrs=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                   max_size=300),
)
@settings(max_examples=50, deadline=None)
def test_property_immediate_rereference_hits(addrs):
    """Any address accessed twice in a row must hit the second time."""
    cache = make_cache(size=2048, line=32, assoc=4)
    for addr in addrs:
        cache.access(addr)
        assert cache.access(addr).hit


@given(
    addrs=st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1,
                   max_size=500),
    writes=st.lists(st.booleans(), min_size=1, max_size=500),
)
@settings(max_examples=50, deadline=None)
def test_property_stats_invariants(addrs, writes):
    """hits + misses == accesses; ways never exceed associativity."""
    cache = make_cache(size=512, line=32, assoc=2)
    for addr, write in zip(addrs, writes):
        cache.access(addr, write=write)
    stats = cache.stats
    assert stats.hits + stats.misses == stats.accesses
    assert all(len(ways) <= 2 and len({tag for tag, _ in ways}) == len(ways)
               for ways in cache.sets())
    assert stats.writebacks <= stats.evictions


@given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 18),
                      min_size=1, max_size=200))
@settings(max_examples=30, deadline=None)
def test_property_contains_matches_access_hit(addrs):
    """contains() must agree with what a subsequent access observes."""
    cache = make_cache(size=1024, line=64, assoc=2)
    for addr in addrs:
        resident = cache.contains(addr)
        assert cache.access(addr).hit == resident
