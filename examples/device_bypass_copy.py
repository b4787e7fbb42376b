"""Device-to-device copy through an active switch (extension demo).

The paper's conclusion claims active switches improve "host-to-host,
host-to-device, and device-to-host communication".  This example
exercises the remaining corner — device-to-device: replicating a
dataset from one storage node to another (think backup or RAID
rebuild).

* **Host-mediated copy** (the conventional system): the host reads every
  block (full OS request cost, data lands in host memory), then writes
  it back out to the second storage node — 2x the bytes through the
  host's link and memory.
* **Switch-directed copy**: a tar-style handler pulls blocks from
  storage0 and redirects them straight to storage1; the host only posts
  the initial command.

Run:  python examples/device_bypass_copy.py [mbytes]
"""

import sys

from repro.cluster import ClusterConfig, ReadStream, System
from repro.sim.units import ps_to_ms


def host_mediated_copy(total_bytes: int, request_bytes: int = 256 * 1024):
    system = System(ClusterConfig(num_storage=2, prefetch_depth=2))
    env = system.env
    host = system.host
    src, dst = system.storage_nodes

    def copier(env):
        stream = ReadStream(system, host, total_bytes=total_bytes,
                            request_bytes=request_bytes, depth=2,
                            to_switch=False, request_cost="os",
                            storage_index=0)
        for index in range(stream.num_blocks):
            arrival = yield from stream.next_block()
            yield from stream.consume_fully(arrival)
            # Write request: OS cost again, then push to storage1.
            yield from host.os_request(arrival.nbytes)
            host.hca.account_bulk_out(arrival.nbytes)
            done = dst.serve_write_burst(env.now, arrival.offset,
                                         arrival.nbytes)
            yield env.timeout(done - env.now)
            yield from stream.done_with(arrival)

    proc = env.process(copier(env), name="host-copy")
    env.run(until=proc)
    return env.now, host


def switch_directed_copy(total_bytes: int, request_bytes: int = 256 * 1024):
    config = ClusterConfig(num_storage=2, prefetch_depth=2, active=True)
    system = System(config)
    env = system.env
    host = system.host
    src, dst = system.storage_nodes

    def copier(env):
        yield from host.active_request()  # one command to the handler
        stream = ReadStream(system, host, total_bytes=total_bytes,
                            request_bytes=request_bytes, depth=2,
                            to_switch=True, request_cost="none",
                            storage_index=0)
        for index in range(stream.num_blocks):
            arrival = yield from stream.next_block()
            # The handler only redirects buffers: trivial CPU cost.
            yield from system.process_on_switch(
                cycles=60, stall_ps=0, arrival_end_ps=arrival.end_ps)
            done = dst.serve_write_burst(env.now, arrival.offset,
                                         arrival.nbytes)
            yield env.timeout(done - env.now)
            yield from stream.done_with(arrival)

    proc = env.process(copier(env), name="switch-copy")
    env.run(until=proc)
    return env.now, host


def main(mbytes: int = 8):
    total = mbytes * 1024 * 1024
    host_time, host_node = host_mediated_copy(total)
    switch_time, switch_node = switch_directed_copy(total)

    print(f"copy {mbytes} MiB from storage0 to storage1\n")
    print(f"{'':24}{'time':>10}  {'host bytes':>12}  {'host busy':>10}")
    print(f"{'host-mediated copy':24}{ps_to_ms(host_time):8.1f} ms"
          f"  {host_node.hca.traffic.total_bytes:>12,}"
          f"  {ps_to_ms(host_node.cpu.accounting.busy_ps):8.1f} ms")
    print(f"{'switch-directed copy':24}{ps_to_ms(switch_time):8.1f} ms"
          f"  {switch_node.hca.traffic.total_bytes:>12,}"
          f"  {ps_to_ms(switch_node.cpu.accounting.busy_ps):8.1f} ms")
    print(f"\nspeedup {host_time / switch_time:.2f}x; host traffic "
          f"eliminated entirely; host CPU freed "
          f"({ps_to_ms(host_node.cpu.accounting.busy_ps):.1f} ms -> "
          f"{ps_to_ms(switch_node.cpu.accounting.busy_ps):.3f} ms)")
    assert switch_node.hca.traffic.total_bytes == 0
    assert switch_time <= host_time


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
