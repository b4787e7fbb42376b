"""MD5 benchmark (paper Section 5 and Figure 17).

MD5 is the paper's deliberate *failure case* for a single switch CPU —
"it is difficult to find an appropriate partitioning of this
compute-intensive code" — and the showcase for multiple embedded
processors: "There should be a predetermined finite number of blocks
processed from independent seeds, such that the I-th block is part of
the 'I mod K'-th chain.  The resulting K digests themselves form a
message, which can be MD5-encoded using a single-block algorithm."

Every digest comes from Python's ``hashlib`` (RFC 1321 MD5); the
K-way interleaved-chain variant, :func:`md5_interleaved`, is this
module's own code.  The simulator never hashes per block: the timing
below charges cycles per byte, and the digests are the app's
functional result.

Cost model: ~32 cycles/byte on the single-issue 2 GHz host (unoptimised
reference code: 64 steps per 64-byte chunk, each a handful of ALU ops
plus loads), the same instruction count at 0.95x on the switch CPU
(data-buffer loads are single-cycle).  The input is one 256 KB file
read with OS read-ahead already in train (``warm_start``), so the
experiment measures the compute partition rather than a first seek.
"""

from __future__ import annotations

import hashlib
from typing import List

from ..cluster.iostream import ReadStream
from ..cluster.system import System
from .base import BlockWork, StreamApp

#: Paper input size.
PAPER_INPUT_BYTES = 256 * 1024

#: Host cycles per hashed byte.
HOST_MD5_CYCLES_PER_BYTE = 32.0
#: Switch cycle ratio vs host (no load stalls from the data buffers).
SWITCH_MD5_EFFICIENCY = 0.95

_INPUT_BASE = 0x2000_0000


# ----------------------------------------------------------------------
# The K-chain interleave
# ----------------------------------------------------------------------
def _md5(data: bytes) -> bytes:
    """MD5 of ``data``.  Not a security use, so FIPS-mode builds of
    Python hash it too."""
    return hashlib.md5(data, usedforsecurity=False).digest()


def md5_interleaved(data: bytes, chains: int,
                    block_bytes: int = 64 * 1024) -> bytes:
    """The paper's K-chain variant.

    Block i belongs to chain ``i mod chains``; the K chain digests form
    a message hashed by the single-block algorithm.  ``chains=1``
    reduces to a digest-of-digest of the plain stream, keeping the
    output format uniform across K.
    """
    if chains < 1:
        raise ValueError(f"need at least one chain, got {chains}")
    if block_bytes < 1:
        raise ValueError(f"block_bytes must be at least 1, got {block_bytes}")
    parts: List[List[bytes]] = [[] for _ in range(chains)]
    for index, offset in enumerate(range(0, len(data), block_bytes)):
        parts[index % chains].append(data[offset:offset + block_bytes])
    return _md5(b"".join(_md5(b"".join(chunks)) for chunks in parts))


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------
class Md5App(StreamApp):
    """MD5 under the four configurations, with 1/2/4 switch CPUs."""

    name = "md5"
    # Fine-grained requests: the "I mod K" interleave only fills K CPUs
    # when several chain blocks are in flight per disk pass.
    request_bytes = 8 * 1024

    def __init__(self, scale: float = 1.0, num_switch_cpus: int = 1):
        self.num_switch_cpus = num_switch_cpus
        super().__init__(scale=scale)

    def prepare(self) -> None:
        total = max(16 * 1024, int(PAPER_INPUT_BYTES * self.scale))
        # Deterministic pseudo-file.
        stencil = bytes(range(256)) * 16
        data = (stencil * (total // len(stencil) + 1))[:total]
        self.data = data
        self.digest = _md5(data)
        self.chained_digest = md5_interleaved(
            data, self.num_switch_cpus, self.request_bytes)

        cursor = _INPUT_BASE
        for offset in range(0, total, self.request_bytes):
            nbytes = min(self.request_bytes, total - offset)
            base = cursor
            cursor += nbytes

            def host_stall(hierarchy, addr=base, size=nbytes):
                return hierarchy.load_range(addr, size)

            self.blocks.append(BlockWork(
                nbytes=nbytes,
                host_cycles=nbytes * HOST_MD5_CYCLES_PER_BYTE,
                host_stall_fn=host_stall,
                handler_cycles=(nbytes * HOST_MD5_CYCLES_PER_BYTE
                                * SWITCH_MD5_EFFICIENCY),
                handler_stall_fn=None,
                out_bytes=0,
                active_host_cycles=0,
                active_host_stall_fn=None,
            ))

    # ------------------------------------------------------------------
    # Flows: normal inherits StreamApp's, but with a warm-started stream;
    # active pins block i to switch CPU (i mod K).
    # ------------------------------------------------------------------
    #: Normal-case I/O request size (the host reads the file in
    #: ordinary 64 KB requests; the fine 8 KB granularity above is only
    #: the active case's chain-interleave unit).
    normal_request_bytes = 64 * 1024

    def run_normal(self, system: System, depth: int):
        host = system.host
        stream = ReadStream(system, host, total_bytes=self.total_bytes,
                            request_bytes=self.normal_request_bytes,
                            depth=depth, to_switch=False, request_cost="os",
                            warm_start=True)
        cursor = _INPUT_BASE
        for index in range(stream.num_blocks):
            arrival = yield from stream.next_block()
            yield from stream.consume_fully(arrival)
            stall = host.hierarchy.load_range(cursor, arrival.nbytes)
            cursor += arrival.nbytes
            yield from host.cpu.work(
                arrival.nbytes * HOST_MD5_CYCLES_PER_BYTE, stall)
            yield from stream.done_with(arrival)
        # Final digest delivered to the application: negligible.

    def run_active(self, system: System, depth: int):
        env = system.env
        host = system.host
        stream = ReadStream(system, host, total_bytes=self.total_bytes,
                            request_bytes=self.request_bytes, depth=depth,
                            to_switch=True, request_cost="active",
                            warm_start=True)
        from ..sim.resources import Store
        cpus = system.switch.cpus
        queues = [Store(env) for _ in cpus]
        done_events = []

        def chain_worker(cpu, queue, count):
            for _ in range(count):
                work, arrival = yield queue.get()
                yield from cpu.work(busy_cycles=work.handler_cycles)
                if not arrival.end_event.processed:
                    wait_start = env.now
                    yield arrival.end_event
                    cpu.accounting.add_stall(env.now - wait_start)

        counts = [0] * len(cpus)
        for index in range(len(self.blocks)):
            counts[index % len(cpus)] += 1
        for cpu, queue, count in zip(cpus, queues, counts):
            if count:
                done_events.append(env.process(
                    chain_worker(cpu, queue, count),
                    name=f"md5-chain-{cpu.cpu_id}"))

        def dispatcher(env):
            for index, work in enumerate(self.blocks):
                arrival = yield from stream.next_block()
                yield queues[index % len(cpus)].put((work, arrival))
                # The block is pinned to its chain's CPU; the stream can
                # fetch the next block as soon as this one has fully
                # arrived in that CPU's staging buffers.
                yield from stream.consume_fully(arrival)
                yield from stream.done_with(arrival)

        dispatch_proc = env.process(dispatcher(env), name="md5-dispatch")
        yield env.all_of([dispatch_proc] + done_events)
        # Digest-of-digests on one switch CPU: K * 16 bytes.
        final_bytes = 16 * len(cpus)
        yield from system.process_on_switch(
            cycles=final_bytes * HOST_MD5_CYCLES_PER_BYTE
            * SWITCH_MD5_EFFICIENCY, stall_ps=0)
        # Ship the 16-byte digest to the host.
        yield from system.switch_to_host_bulk(host, 16)
