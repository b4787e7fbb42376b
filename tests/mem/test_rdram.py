"""Unit tests for the RDRAM model."""

import pytest

from repro.mem import Rdram, RdramConfig
from repro.sim.units import ns


def test_page_miss_then_hit():
    mem = Rdram()
    first = mem.access(0x0, nbytes=128)
    second = mem.access(0x80, nbytes=128)  # same 2 KB page
    assert first > second
    assert mem.stats.page_misses == 1
    assert mem.stats.page_hits == 1


def test_page_hit_latency_matches_paper():
    mem = Rdram()
    mem.access(0x0, nbytes=128)
    hit = mem.access(0x40, nbytes=128)
    # 100 ns access + 128 B at 1.6 GB/s (80 ns)
    assert hit == ns(100) + ns(80)


def test_page_miss_latency_matches_paper():
    mem = Rdram()
    miss = mem.access(0x0, nbytes=128)
    assert miss == ns(122) + ns(80)


def test_different_pages_same_bank_conflict():
    config = RdramConfig(num_banks=2, page_size=2048)
    mem = Rdram(config)
    mem.access(0x0)               # page 0 -> bank 0
    mem.access(2 * 2048 * 1)      # page 2 -> bank 0, closes page 0
    third = mem.access(0x0)
    assert mem.stats.page_misses == 3
    assert third == pytest.approx(config.page_miss_ps + ns(80), rel=0.01)


def test_stream_is_bandwidth_limited():
    mem = Rdram()
    # 1.6 MB at 1.6 GB/s = 1 ms
    assert mem.stream(1_600_000) == pytest.approx(1e9, rel=0.001)


def test_stream_zero_bytes():
    assert Rdram().stream(0) == 0


def test_stream_negative_rejected():
    with pytest.raises(ValueError):
        Rdram().stream(-1)


def test_access_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Rdram().access(0, nbytes=0)


def test_config_validation():
    with pytest.raises(ValueError):
        RdramConfig(bandwidth_bytes_per_s=0)
    with pytest.raises(ValueError):
        RdramConfig(page_hit_ps=ns(200), page_miss_ps=ns(100))


def test_bytes_transferred_accumulates():
    mem = Rdram()
    mem.access(0x0, nbytes=128)
    mem.stream(1000)
    assert mem.stats.bytes_transferred == 1128


def test_repeated_stream_is_memoised_and_exact():
    mem = Rdram()
    first = [mem.stream(n) for n in (128, 1000, 128)]
    again = [mem.stream(n) for n in (128, 1000, 128)]
    assert first == again
    assert first[0] == first[2] == ns(80)
    assert mem.stats.bytes_transferred == 2 * (128 + 1000 + 128)


def test_access_lines_walks_open_pages_in_order():
    mem = Rdram()
    # Pages 0, 0, 2, 0, 1, 1, 18; page 18 shares bank 2 with page 2.
    addrs = [0x0, 0x80, 0x1000, 0x0, 0x900, 0x880, 0x1000 + 16 * 2048]
    assert mem.access_lines(addrs, 64) == 3
    assert (mem.stats.accesses, mem.stats.page_misses) == (7, 4)
    assert mem.stats.bytes_transferred == 7 * 64
    assert mem._open_pages[:3] == [0, 1, 18]
    assert mem.fill_latencies(64) == (ns(100) + ns(40), ns(122) + ns(40))


def test_access_lines_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Rdram().access_lines([0], 0)
