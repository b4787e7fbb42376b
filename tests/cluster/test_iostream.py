"""Integration tests for ReadStream: ordering, overlap, accounting."""

import pytest

from repro.cluster import ClusterConfig, ReadStream, System
from repro.sim.units import ms, us


def drain_stream(system, stream, work_fn=None):
    """Consume every block; returns list of (start_ps, end_ps)."""
    spans = []

    def consumer(env):
        for _ in range(stream.num_blocks):
            arrival = yield from stream.next_block()
            yield from stream.consume_fully(arrival)
            spans.append((arrival.start_ps, env.now, arrival))
            if work_fn is not None:
                yield from work_fn(arrival)
            yield from stream.done_with(arrival)

    proc = system.env.process(consumer(system.env))
    system.env.run(until=proc)
    return spans


def test_blocks_arrive_in_order_with_correct_sizes():
    system = System(ClusterConfig())
    stream = ReadStream(system, system.host, total_bytes=100_000,
                        request_bytes=32_768)
    spans = drain_stream(system, stream)
    arrivals = [s[2] for s in spans]
    assert [a.index for a in arrivals] == [0, 1, 2, 3]
    assert [a.nbytes for a in arrivals] == [32_768, 32_768, 32_768, 1_696]
    assert sum(a.nbytes for a in arrivals) == 100_000


def test_block_offsets_are_sequential():
    system = System(ClusterConfig())
    stream = ReadStream(system, system.host, total_bytes=65_536,
                        request_bytes=32_768)
    spans = drain_stream(system, stream)
    assert [s[2].offset for s in spans] == [0, 32_768]


def test_first_block_pays_disk_positioning():
    system = System(ClusterConfig())
    stream = ReadStream(system, system.host, total_bytes=65_536,
                        request_bytes=32_768)
    spans = drain_stream(system, stream)
    first_start = spans[0][0]
    # seek (5 ms) + half rotation (3 ms) dominate the first arrival.
    assert first_start >= ms(8)


def test_sequential_blocks_skip_positioning():
    system = System(ClusterConfig())
    stream = ReadStream(system, system.host, total_bytes=65_536,
                        request_bytes=32_768)
    spans = drain_stream(system, stream)
    gap = spans[1][1] - spans[0][1]
    # Second block: no seek, just ~32 KB at 100 MB/s (~328 us) + overheads.
    assert gap < ms(1)


def test_os_request_cost_charged_to_host():
    system = System(ClusterConfig())
    stream = ReadStream(system, system.host, total_bytes=65_536,
                        request_bytes=32_768, request_cost="os")
    drain_stream(system, stream)
    # Two requests: 2 * (30 us + 32 * 0.27 us).
    expected = 2 * (us(30) + 32 * us(0.27))
    assert system.host.cpu.accounting.busy_ps == expected


def test_active_request_cost_is_smaller():
    normal = System(ClusterConfig())
    stream_n = ReadStream(normal, normal.host, total_bytes=65_536,
                          request_bytes=32_768, request_cost="os")
    drain_stream(normal, stream_n)

    active = System(ClusterConfig(active=True))
    stream_a = ReadStream(active, active.host, total_bytes=65_536,
                          request_bytes=32_768, to_switch=True,
                          request_cost="active")
    drain_stream(active, stream_a)
    assert (active.host.cpu.accounting.busy_ps
            < normal.host.cpu.accounting.busy_ps)


def test_host_traffic_counted_for_host_destination():
    system = System(ClusterConfig())
    stream = ReadStream(system, system.host, total_bytes=65_536,
                        request_bytes=32_768)
    drain_stream(system, stream)
    assert system.host.hca.traffic.bytes_in == 65_536


def test_no_host_traffic_for_switch_destination():
    system = System(ClusterConfig(active=True))
    stream = ReadStream(system, system.host, total_bytes=65_536,
                        request_bytes=32_768, to_switch=True,
                        request_cost="active")
    drain_stream(system, stream)
    assert system.host.hca.traffic.bytes_in == 0


def test_prefetch_overlaps_io_with_processing():
    """depth=2 must be faster than depth=1 when processing takes time."""
    def slow_work_factory(system):
        def work(arrival):
            yield from system.host.cpu.work(busy_cycles=400_000)  # 200 us
        return work

    times = {}
    for depth in (1, 2):
        system = System(ClusterConfig(prefetch_depth=depth))
        stream = ReadStream(system, system.host, total_bytes=512 * 1024,
                            request_bytes=64 * 1024, depth=depth)
        drain_stream(system, stream, work_fn=slow_work_factory(system))
        times[depth] = system.env.now
    assert times[2] < times[1]
    # 8 blocks x 200 us of hideable work: the gap should be substantial.
    assert times[1] - times[2] > us(1000)


def test_sync_depth1_serializes_io_and_processing():
    system = System(ClusterConfig())
    stream = ReadStream(system, system.host, total_bytes=128 * 1024,
                        request_bytes=64 * 1024, depth=1)
    io_spans = []

    def consumer(env):
        for _ in range(2):
            arrival = yield from stream.next_block()
            yield from stream.consume_fully(arrival)
            io_spans.append((arrival.start_ps, env.now))
            yield from system.host.cpu.work(busy_cycles=2_000_000)  # 1 ms
            yield from stream.done_with(arrival)

    proc = system.env.process(consumer(system.env))
    system.env.run(until=proc)
    # Second block's first data must arrive after first block processing
    # ended (1 ms after the first block's arrival completed).
    assert io_spans[1][0] >= io_spans[0][1] + ms(1)


def test_payloads_attached_to_blocks():
    system = System(ClusterConfig())
    stream = ReadStream(system, system.host, total_bytes=65_536,
                        request_bytes=32_768, payloads=["a", "b"])
    spans = drain_stream(system, stream)
    assert [s[2].payload for s in spans] == ["a", "b"]


def test_stream_validation():
    system = System(ClusterConfig())
    with pytest.raises(ValueError):
        ReadStream(system, system.host, total_bytes=0, request_bytes=1)
    with pytest.raises(ValueError):
        ReadStream(system, system.host, total_bytes=1, request_bytes=1,
                   depth=0)
    with pytest.raises(ValueError):
        ReadStream(system, system.host, total_bytes=1, request_bytes=1,
                   request_cost="bogus")


def test_tied_completions_wake_consumers_in_storage_order():
    """Sort's four symmetric streams finish same-sized blocks in the
    same picosecond.  The completion finisher wakes their consumers in
    the storage pipeline's completion order; scheduling each
    completion from the producer at issue time instead shifts this run
    (to 41,244,197,148 ps).  At 0.35x the registry scale and below the
    two orders agree, so the golden fixtures cannot tell them apart."""
    import repro
    result = repro.run("sort", cases=("normal+pref",), scale=1 / 128,
                       parallel=1, cache=False)
    assert result.cases["normal+pref"].exec_ps == 41_246_161_148
