"""HashJoin with bit-vector filter (paper Section 5, Figures 5/6).

DeWitt/Gerber bit-vector filtering: while the smaller relation R is
scanned, each R tuple's hashed join attribute sets a bit in a bit-vector
(8 bits per R record, i.e. the paper's 128 KB vector for a 16 MB R).
While S is scanned, tuples whose bit is clear are discarded before the
join.  In the active system the bit-vector lives *in the switch*: R
passes through (setting bits) on its way to the host, then the switch
filters S and forwards only passing records (reduction factor 0.24).

Both relations stream from storage back to back, so the benchmark is a
single :class:`StreamApp` whose early blocks are R (build + pass-through)
and later blocks are S (probe + filter).

Cost model: hash of a 4-byte key ~10 cycles; hash-table insert ~30
cycles plus two random stores; bit-vector probe is one random load into
a region twice the (scaled) L2 — the paper's main source of host cache
stalls; a passing record costs a ~3-line hash-table probe + ~40 cycles
of join work.  The switch handler pays its bit-vector references out of
a 1 KB D-cache backed by switch RDRAM ("the switch CPU also suffers
from cache misses because the bit-vector is too big for its limited L1
data cache ... However, this impact is small").
"""

from __future__ import annotations

import random

from ..workloads import records
from .base import BlockWork, StreamApp

#: Paper problem sizes (already the authors' 8x-scaled versions).
PAPER_R_BYTES = 16 * 1024 * 1024
PAPER_S_BYTES = 128 * 1024 * 1024

#: Bit-vector density: 8 bits per R record (128 KB for 16 MB R).
BITS_PER_R_RECORD = 8

# Cycle costs.
HASH_CYCLES = 10
HT_INSERT_CYCLES = 30
BV_SET_CYCLES = 6
BV_PROBE_CYCLES = 8
HT_PROBE_CYCLES = 25
JOIN_EMIT_CYCLES = 40
ACTIVE_HOST_PER_BLOCK_CYCLES = 40

# Virtual address map (host).
_INPUT_BASE = 0x2000_0000
_HASHTABLE_BASE = 0x5000_0000
_BITVECTOR_BASE = 0x5800_0000
# Switch local memory.
_SWITCH_BV_BASE = 0x0010_0000


def _pow2_divisor(scale: float) -> int:
    divisor = 1
    while divisor < 64 and scale * divisor * 2 <= 1.0:
        divisor *= 2
    return divisor


class HashJoinApp(StreamApp):
    """HashJoin with bit-vector filtering under the four configurations."""

    name = "hashjoin"
    request_bytes = 64 * 1024
    database_scaled = True

    def __init__(self, scale: float = 1.0,
                 reduction_factor: float = records.PAPER_REDUCTION_FACTOR):
        self.reduction_factor = reduction_factor
        self.cache_scale_divisor = _pow2_divisor(scale)
        super().__init__(scale=scale)

    def prepare(self) -> None:
        # Both relations are read back to back through one request-sized
        # stream, so align each to whole requests (otherwise a partial R
        # block would shift every subsequent S block boundary).
        r_bytes = max(self.request_bytes, int(PAPER_R_BYTES * self.scale))
        s_bytes = max(self.request_bytes, int(PAPER_S_BYTES * self.scale))
        r_bytes -= r_bytes % self.request_bytes
        s_bytes -= s_bytes % self.request_bytes
        r_table = records.generate_r_table(r_bytes)
        s_table = records.generate_s_table(s_bytes, r_table,
                                           pass_fraction=self.reduction_factor)
        self.r_table, self.s_table = r_table, s_table

        # Real bit-vector filter: hash into 8 bits per R record.
        bv_bits = r_table.num_records * BITS_PER_R_RECORD
        bit_vector = bytearray(bv_bits // 8)
        for key in r_table.keys:
            h = hash(key) % bv_bits
            bit_vector[h >> 3] |= 1 << (h & 7)
        self.bit_vector = bit_vector
        self.bv_bytes = len(bit_vector)
        ht_bytes = r_table.num_records * 16  # bucket headers
        rng = random.Random(99)

        self.s_passing = 0
        per_block = records.records_per_block(self.request_bytes)
        cursor = _INPUT_BASE

        # ---------------- R phase blocks ----------------
        for start in range(0, r_table.num_records, per_block):
            keys = r_table.keys[start:start + per_block]
            nbytes = len(keys) * records.RECORD_BYTES
            base = cursor
            cursor += nbytes
            probes = [hash(k) % bv_bits for k in keys]

            def host_build_stall(hierarchy, addr=base, keys=tuple(keys),
                                 probes=tuple(probes)):
                addrs = []
                for i, (key, h) in enumerate(zip(keys, probes)):
                    # Record load; hash-table insert: bucket header +
                    # record slot; normal case: the bit-vector is built
                    # on the host.
                    addrs += (addr + i * records.RECORD_BYTES,
                              _HASHTABLE_BASE + (key * 2654435761) % ht_bytes,
                              _HASHTABLE_BASE + ht_bytes
                              + i * records.RECORD_BYTES,
                              _BITVECTOR_BASE + (h >> 3))
                return hierarchy.access_many(
                    addrs, (False, True, True, True) * len(keys))

            def host_build_active_stall(hierarchy, addr=base,
                                        keys=tuple(keys)):
                # Active: bit-vector lives on the switch; host only
                # builds the hash table.
                addrs = []
                for i, key in enumerate(keys):
                    addrs += (addr + i * records.RECORD_BYTES,
                              _HASHTABLE_BASE + (key * 2654435761) % ht_bytes)
                return hierarchy.access_many(addrs, (False, True) * len(keys))

            def handler_build_stall(hierarchy, probes=tuple(probes)):
                # Switch: set bits in local memory through the 1 KB D$.
                return hierarchy.access_many(
                    [_SWITCH_BV_BASE + (h >> 3) for h in probes], True)

            build_cycles = len(keys) * (HASH_CYCLES + HT_INSERT_CYCLES
                                        + BV_SET_CYCLES)
            self.blocks.append(BlockWork(
                nbytes=nbytes,
                host_cycles=build_cycles,
                host_stall_fn=host_build_stall,
                handler_cycles=len(keys) * (HASH_CYCLES + BV_SET_CYCLES),
                handler_stall_fn=handler_build_stall,
                out_bytes=nbytes,  # R passes through to the host
                active_host_cycles=len(keys) * (HASH_CYCLES
                                                + HT_INSERT_CYCLES),
                active_host_stall_fn=host_build_active_stall,
            ))

        # ---------------- S phase blocks ----------------
        self.r_phase_blocks = len(self.blocks)
        for start in range(0, s_table.num_records, per_block):
            keys = s_table.keys[start:start + per_block]
            nbytes = len(keys) * records.RECORD_BYTES
            base = cursor
            cursor += nbytes
            probes = [hash(k) % bv_bits for k in keys]
            passing = [bool(bit_vector[h >> 3] & (1 << (h & 7)))
                       for h in probes]
            pass_count = sum(passing)
            self.s_passing += pass_count

            def host_probe_stall(hierarchy, addr=base, keys=tuple(keys),
                                 probes=tuple(probes),
                                 passing=tuple(passing)):
                addrs = []
                for i, (key, h, ok) in enumerate(zip(keys, probes, passing)):
                    addrs += (addr + i * records.RECORD_BYTES,
                              _BITVECTOR_BASE + (h >> 3))
                    if ok:
                        addrs += (
                            _HASHTABLE_BASE + (key * 2654435761) % ht_bytes,
                            _HASHTABLE_BASE + ht_bytes
                            + (key % max(1, ht_bytes)))
                return hierarchy.access_many(addrs, False)

            def handler_probe_stall(hierarchy, probes=tuple(probes)):
                return hierarchy.access_many(
                    [_SWITCH_BV_BASE + (h >> 3) for h in probes], False)

            def host_join_stall(hierarchy, addr=base, keys=tuple(keys),
                                passing=tuple(passing)):
                addrs = []
                slot_index = 0
                for key, ok in zip(keys, passing):
                    if not ok:
                        continue
                    addrs += (addr + slot_index * records.RECORD_BYTES,
                              _HASHTABLE_BASE + (key * 2654435761) % ht_bytes,
                              _HASHTABLE_BASE + ht_bytes
                              + (key % max(1, ht_bytes)))
                    slot_index += 1
                return hierarchy.access_many(addrs, False)

            host_cycles = (len(keys) * (HASH_CYCLES + BV_PROBE_CYCLES)
                           + pass_count * (HT_PROBE_CYCLES + JOIN_EMIT_CYCLES))
            self.blocks.append(BlockWork(
                nbytes=nbytes,
                host_cycles=host_cycles,
                host_stall_fn=host_probe_stall,
                handler_cycles=len(keys) * (HASH_CYCLES + BV_PROBE_CYCLES),
                handler_stall_fn=handler_probe_stall,
                out_bytes=pass_count * records.RECORD_BYTES,
                active_host_cycles=(
                    ACTIVE_HOST_PER_BLOCK_CYCLES
                    + pass_count * (HASH_CYCLES + HT_PROBE_CYCLES
                                    + JOIN_EMIT_CYCLES)),
                active_host_stall_fn=host_join_stall,
            ))

    # Functional oracles -------------------------------------------------
    def reference_pass_fraction(self) -> float:
        """Fraction of S surviving the bit-vector (incl. false positives)."""
        return self.s_passing / self.s_table.num_records

    def reference_true_matches(self) -> int:
        """S records whose key actually exists in R."""
        r_keys = set(self.r_table.keys)
        return sum(1 for k in self.s_table.keys if k in r_keys)
