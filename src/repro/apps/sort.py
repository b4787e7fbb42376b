"""Parallel sort benchmark (paper Section 5, Figures 13/14).

One-pass parallel sort of Datamation records (100 B, 10 B uniform keys,
or Zipf-skewed ones with ``key_skew``) on p nodes; only the *data
distribution* phase is simulated ("there is no difference between the
active and normal cases in the sorting phase").  Normal: every node
reads its 1/p of the input and sends each record to the node owning its
key range.  Active: the switch handler
redistributes records in flight so "each node only gets the records
assigned to it" — per-node traffic drops to 1/p of the total, i.e. a
fraction p/(3p-2) of the normal case's (the paper's formula).

Cost model: ~35 host cycles per record in the normal case (key extract,
range compare, copy into the destination's send buffer) plus scan/store
cache stalls; the switch handler spends ~14 cycles per record on the
range decision, forwarding straight from the data buffers.
"""

from __future__ import annotations

from typing import List, Optional

from ..cluster.config import ClusterConfig
from ..cluster.iostream import ReadStream
from ..cluster.system import System
from ..workloads import datamation, zipf
from .base import SystemApp

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

HOST_DISTRIBUTE_CYCLES_PER_RECORD = 35
SWITCH_ROUTE_CYCLES_PER_RECORD = 14

_INPUT_BASE = 0x2000_0000
_SENDBUF_BASE = 0x6000_0000


def _block_owner_counts(keys: List[bytes], per_block: int,
                        num_nodes: int) -> List[List[int]]:
    """Per-block destination counts: ``owner = (key * p) >> 80``.

    The numpy path computes the 80-bit key x node product exactly in
    uint64 lanes — key = hi·2^48 + mid·2^16 + low (32/32/16-bit limbs),
    so ``(key·p) >> 80 = (hi·p + ((mid·p·2^16 + low·p) >> 48)) >> 32``
    with every intermediate < 2^64 for any realistic node count.  The
    scalar fallback is the definitional big-int loop; both produce the
    same integers (tests/apps/test_vectorized_kernels.py).
    """
    key_space_bits = 8 * datamation.KEY_BYTES
    if _np is not None and num_nodes <= 4096:
        words = _np.frombuffer(b"".join(keys), dtype=">u2")
        words = words.reshape(-1, datamation.KEY_BYTES // 2)
        words = words.astype(_np.uint64)
        p = _np.uint64(num_nodes)
        hi = (words[:, 0] << _np.uint64(16)) | words[:, 1]
        mid = (words[:, 2] << _np.uint64(16)) | words[:, 3]
        low = words[:, 4]
        tail = ((mid * p) << _np.uint64(16)) + low * p
        owners = (hi * p + (tail >> _np.uint64(48))) >> _np.uint64(32)
        return [_np.bincount(owners[start:start + per_block],
                             minlength=num_nodes).tolist()
                for start in range(0, len(owners), per_block)]
    blocks = []
    for start in range(0, len(keys), per_block):
        counts = [0] * num_nodes
        for key in keys[start:start + per_block]:
            owner = (int.from_bytes(key, "big")
                     * num_nodes) >> key_space_bits
            counts[owner] += 1
        blocks.append(counts)
    return blocks


class SortApp(SystemApp):
    """Parallel sort distribution phase under the four configurations."""

    name = "sort"
    #: ~256 KB requests, rounded to a whole number of 100 B records so
    #: the I/O blocks and the record blocks stay in lockstep.
    request_bytes = (256 * 1024 // datamation.RECORD_BYTES) * datamation.RECORD_BYTES

    def __init__(self, scale: float = 1.0, num_nodes: int = 4,
                 key_skew: Optional[float] = None):
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if num_nodes < 2:
            raise ValueError("parallel sort needs at least 2 nodes")
        self.scale = scale
        self.num_nodes = num_nodes
        total_records = max(num_nodes * 1024,
                            int(datamation.PAPER_NUM_RECORDS * scale))
        total_records -= total_records % num_nodes
        self.records_per_node = total_records // num_nodes
        self.total_records = total_records
        # Per source node: per-block destination counts.  Keys partition
        # by high bits: node = key * p / keyspace (equivalent to
        # datamation.assign_node, vectorised for speed).  ``key_skew``
        # draws Zipf(key_skew) keys instead of uniform ones, which a
        # static range partition leaves unbalanced.
        per_block_records = self.request_bytes // datamation.RECORD_BYTES
        self.node_blocks: List[List[List[int]]] = []
        for node in range(num_nodes):
            keys = (datamation.generate_keys(self.records_per_node,
                                             seed=17 + node)
                    if key_skew is None else
                    zipf.generate_zipf_keys(self.records_per_node,
                                            exponent=key_skew,
                                            seed=31 + node))
            self.node_blocks.append(_block_owner_counts(
                keys, per_block_records, num_nodes))

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(num_hosts=self.num_nodes,
                             num_storage=self.num_nodes)

    @property
    def bytes_per_node(self) -> int:
        return self.records_per_node * datamation.RECORD_BYTES

    # ------------------------------------------------------------------
    def run_normal(self, system: System, depth: int):
        """Every node reads its share and sends each record to its owner."""
        yield self._all_nodes(system, self._node_normal, depth)

    def run_active(self, system: System, depth: int):
        """The switch handler routes every node's records in flight."""
        yield self._all_nodes(system, self._node_active, depth)

    def _all_nodes(self, system: System, node_process, depth: int):
        env = system.env
        return env.all_of([env.process(node_process(system, node, depth),
                                       name=f"sort-node{node}")
                           for node in range(self.num_nodes)])

    def _node_normal(self, system: System, node: int, depth: int):
        host = system.hosts[node]
        stream = ReadStream(system, host, total_bytes=self.bytes_per_node,
                            request_bytes=self.request_bytes, depth=depth,
                            to_switch=False, request_cost="os",
                            storage_index=node)
        cursor_in = _INPUT_BASE
        cursor_out = _SENDBUF_BASE
        for counts in self.node_blocks[node]:
            arrival = yield from stream.next_block()
            yield from stream.consume_fully(arrival)
            nrecords = sum(counts)
            stall = host.hierarchy.load_range(cursor_in, arrival.nbytes)
            stall += host.hierarchy.store_range(cursor_out, arrival.nbytes)
            cursor_in += arrival.nbytes
            cursor_out += arrival.nbytes
            yield from host.cpu.work(
                nrecords * HOST_DISTRIBUTE_CYCLES_PER_RECORD, stall)
            for dst, count in enumerate(counts):
                if dst == node or count == 0:
                    continue
                yield from system.host_to_host_bulk(
                    host, system.hosts[dst],
                    count * datamation.RECORD_BYTES)
            yield from stream.done_with(arrival)

    def _node_active(self, system: System, node: int, depth: int):
        host = system.hosts[node]
        stream = ReadStream(system, host, total_bytes=self.bytes_per_node,
                            request_bytes=self.request_bytes, depth=depth,
                            to_switch=True, request_cost="active",
                            storage_index=node)
        for counts in self.node_blocks[node]:
            arrival = yield from stream.next_block()
            nrecords = sum(counts)
            yield from system.process_on_switch(
                nrecords * SWITCH_ROUTE_CYCLES_PER_RECORD, 0,
                arrival_end_ps=arrival.end_ps)
            for dst, count in enumerate(counts):
                if count == 0:
                    continue
                yield from system.switch_to_host_bulk(
                    system.hosts[dst], count * datamation.RECORD_BYTES)
            yield from stream.done_with(arrival)

    # Functional oracle ---------------------------------------------------
    def distribution_is_conservative(self) -> bool:
        """Every record lands on exactly one node."""
        total = 0
        for blocks in self.node_blocks:
            for counts in blocks:
                total += sum(counts)
        return total == self.total_records
