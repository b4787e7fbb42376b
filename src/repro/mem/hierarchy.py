"""Cache/TLB/memory hierarchy that turns address streams into stall time.

The hierarchy is a *functional* model: each ``load`` / ``store`` /
``ifetch`` walks the cache levels, updates their state, and returns the
stall time in picoseconds.  The CPU models accumulate those stalls into
the "cache stall" component of the paper's execution-time breakdowns.

Stall semantics follow Section 4 of the paper:

* a load miss stalls the processor until the first double-word returns;
* store (and prefetch) misses do not stall unless too many references
  are outstanding — we approximate this with a configurable overlap
  factor applied to store-miss latency;
* TLB misses cost a page-table walk whose references go *through the
  cache hierarchy* (the "cache effects of TLB misses").

The embedded switch processor uses the same machinery with no L2 and no
overlap (its caches support only one outstanding request).

Scans (``load_range`` / ``store_range`` / ``load_stride`` /
``store_stride``) walk a whole access sequence in one call.  The
sequence is chunked per TLB page.  Each chunk makes one real TLB
access (the same-page re-hits only bump the access counter), one L1
pass (:meth:`Cache._access_run` for whole lines,
:meth:`Cache._access_each` for records), one L2 pass over the missed
lines that probes each L2 line once (:meth:`Cache._access_each`
again), and one open-page walk of memory over the L2 misses
(:meth:`Rdram.access_lines`).  Every counter and every stall
sum is bit-identical to issuing the same accesses one ``load`` /
``store`` at a time, which the per-line oracle in ``tests/mem`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.units import Clock
from .cache import HIT, WRITEBACK, Cache, CacheConfig
from .rdram import Rdram, RdramConfig
from .tlb import TLB, TLBConfig


@dataclass(frozen=True)
class HierarchyTiming:
    """Latency knobs for a cache hierarchy, in CPU cycles."""

    #: Extra stall for an L1 miss that hits in L2.
    l2_hit_stall_cycles: int = 10
    #: Fraction of a store-miss latency actually charged as stall
    #: (models the 4-outstanding-miss overlap window; 1.0 = blocking).
    store_overlap_factor: float = 0.25
    #: Memory references performed by a page-table walk on a TLB miss.
    tlb_walk_refs: int = 2
    #: Fixed TLB-miss handler overhead in cycles (trap + refill).
    tlb_refill_cycles: int = 20


class MemoryHierarchy:
    """L1 (+ optional L2) + TLB in front of an RDRAM memory."""

    #: Synthetic address region used for page-table walk references.
    _PAGE_TABLE_BASE = 0x7000_0000

    def __init__(
        self,
        l1d: Cache,
        l1i: Cache,
        memory: Rdram,
        clock: Clock,
        l2: Optional[Cache] = None,
        dtlb: Optional[TLB] = None,
        itlb: Optional[TLB] = None,
        timing: HierarchyTiming = HierarchyTiming(),
    ):
        self.l1d = l1d
        self.l1i = l1i
        self.l2 = l2
        self.dtlb = dtlb
        self.itlb = itlb
        self.memory = memory
        self.clock = clock
        self.timing = timing
        # timing and clock are immutable; precompute the L2-hit stall.
        self._l2_hit_ps = clock.cycles(timing.l2_hit_stall_cycles)
        self._l2_store_ps = round(self._l2_hit_ps
                                  * timing.store_overlap_factor)
        #: Accumulated stall picoseconds, by cause.
        self.load_stall_ps = 0
        self.store_stall_ps = 0
        self.ifetch_stall_ps = 0
        self.tlb_stall_ps = 0

    # ------------------------------------------------------------------
    # Internal walk
    # ------------------------------------------------------------------
    def _miss(self, l1: Cache, addr: int, write: bool) -> int:
        """Stall ps for an ``l1`` miss: L2, then memory."""
        l2 = self.l2
        if l2 is not None:
            code = l2._access(addr, write)
            if code & WRITEBACK:
                # Write-back to memory happens off the critical path.
                self.memory.stream(l2.config.line_size)
            if code & HIT:
                return self._l2_hit_ps
        # Miss to memory: stall until the first double-word arrives.
        return self.memory.access(addr, nbytes=l1.config.line_size)

    def _translate(self, tlb: TLB, addr: int) -> int:
        """Stall ps for address translation (0 on TLB hit).

        The stall is also added to :attr:`tlb_stall_ps`.
        """
        if tlb.access(addr):
            return 0
        stall = self.clock.cycles(self.timing.tlb_refill_cycles)
        page = addr >> (tlb.config.page_size.bit_length() - 1)
        l1d = self.l1d
        for ref in range(self.timing.tlb_walk_refs):
            walk_addr = self._PAGE_TABLE_BASE + (page + ref) * 8
            if not l1d._access(walk_addr, False) & HIT:
                stall += self._miss(l1d, walk_addr, False)
        self.tlb_stall_ps += stall
        return stall

    # ------------------------------------------------------------------
    # Public access points
    # ------------------------------------------------------------------
    def load(self, addr: int) -> int:
        """Data load; returns stall picoseconds."""
        tlb = self.dtlb
        tlb_stall = 0 if tlb is None else self._translate(tlb, addr)
        if self.l1d._access(addr, False) & HIT:
            return tlb_stall
        stall = self._miss(self.l1d, addr, False)
        self.load_stall_ps += stall
        return tlb_stall + stall

    def store(self, addr: int) -> int:
        """Data store; partially overlapped per the paper's miss window."""
        tlb = self.dtlb
        tlb_stall = 0 if tlb is None else self._translate(tlb, addr)
        if self.l1d._access(addr, True) & HIT:
            return tlb_stall
        stall = round(self._miss(self.l1d, addr, True)
                      * self.timing.store_overlap_factor)
        self.store_stall_ps += stall
        return tlb_stall + stall

    def prefetch(self, addr: int) -> None:
        """Software prefetch: warms the caches, never stalls."""
        if self.dtlb is not None:
            self.dtlb.access(addr)
        if not self.l1d._access(addr, False) & HIT:
            self._miss(self.l1d, addr, False)

    def ifetch(self, addr: int) -> int:
        """Instruction fetch; returns stall picoseconds."""
        tlb = self.itlb
        tlb_stall = 0 if tlb is None else self._translate(tlb, addr)
        if self.l1i._access(addr, False) & HIT:
            return tlb_stall
        stall = self._miss(self.l1i, addr, False)
        self.ifetch_stall_ps += stall
        return tlb_stall + stall

    def load_range(self, addr: int, nbytes: int) -> int:
        """Sequential loads touching every line of a byte range."""
        return self._scan_range(addr, nbytes, write=False)

    def store_range(self, addr: int, nbytes: int) -> int:
        """Sequential stores touching every line of a byte range."""
        return self._scan_range(addr, nbytes, write=True)

    def load_stride(self, addr: int, stride: int, count: int) -> int:
        """``count`` loads at ``addr, addr+stride, ...`` (record scans)."""
        if stride > 0:
            return self._scan(addr, stride, count, write=False)
        stall = 0
        for i in range(count):
            stall += self.load(addr + i * stride)
        return stall

    def store_stride(self, addr: int, stride: int, count: int) -> int:
        """``count`` stores at ``addr, addr+stride, ...``."""
        if stride > 0:
            return self._scan(addr, stride, count, write=True)
        stall = 0
        for i in range(count):
            stall += self.store(addr + i * stride)
        return stall

    def _scan_range(self, addr: int, nbytes: int, write: bool) -> int:
        """Every line of ``[addr, addr+nbytes)``; an empty range is free."""
        if nbytes <= 0:
            return 0
        line = self.l1d.config.line_size
        first = addr - (addr % line)
        count = (addr + nbytes - first + line - 1) // line
        return self._scan(first, line, count, write)

    def _scan(self, addr: int, stride: int, count: int, write: bool) -> int:
        """``count`` accesses at ``addr, addr+stride, ...`` in one walk.

        Bit-identical to the per-access loop.  The walk is chunked per
        TLB page: one real translation covers a chunk (the remaining
        same-page accesses are hits that only move an already-MRU entry,
        so they collapse to an access-counter bump), and a page-table
        walk on a miss goes through the caches before the chunk's own
        accesses, as the per-access loop orders it.  The chunk's L1
        misses then consult L2 and memory in order.  Each level sees
        its own accesses in the per-access order, so its state evolves
        identically.
        """
        if count <= 0:
            return 0
        l1d = self.l1d
        # A line-aligned walk one line apart is a run of whole lines.
        run = stride == l1d.config.line_size and not addr % stride
        tlb = self.dtlb
        page_size = tlb.config.page_size if tlb is not None else 0
        tlb_stall = 0
        fill_stall = 0
        pos = addr
        remaining = count
        while remaining:
            if tlb is not None:
                page_end = (pos // page_size + 1) * page_size
                chunk = min(remaining, -(-(page_end - pos) // stride))
                tlb_stall += self._translate(tlb, pos)
                tlb.stats.accesses += chunk - 1
            else:
                chunk = remaining
            if run:
                missed, _ = l1d._access_run(pos, chunk, write=write)
            else:
                missed, _ = l1d._access_each(
                    range(pos, pos + chunk * stride, stride), write=write)
            fill_stall += self._consult_lower(missed, write)
            pos += chunk * stride
            remaining -= chunk
        if write:
            self.store_stall_ps += fill_stall
        else:
            self.load_stall_ps += fill_stall
        return tlb_stall + fill_stall

    def _consult_lower(self, missed, write: bool) -> int:
        """L2/memory stall for a chunk's missed L1 lines, in order.

        L2 probes each run of missed lines that share an L2 line once;
        the repeats are MRU hits.  L2's misses fill from memory in one
        open-page walk.  A store's stall is rounded per line, but each
        line costs one of three latencies (L2 hit, page hit, page miss),
        so the per-line sum is a count times each rounded latency.
        """
        memory = self.memory
        l2 = self.l2
        if l2 is None:
            fills = missed
            stall = 0
        else:
            fills, writebacks = l2._access_each(missed, write=write)
            if writebacks:
                # Off the critical path, bandwidth accounted.
                memory.stream(writebacks * l2.config.line_size)
            stall = ((len(missed) - len(fills))
                     * (self._l2_store_ps if write else self._l2_hit_ps))
        if not fills:
            return stall
        line = self.l1d.config.line_size
        page_hits = memory.access_lines(fills, line)
        hit_ps, miss_ps = memory.fill_latencies(line)
        if write:
            overlap = self.timing.store_overlap_factor
            hit_ps, miss_ps = round(hit_ps * overlap), round(miss_ps * overlap)
        return stall + page_hits * hit_ps + (len(fills) - page_hits) * miss_ps

    @property
    def total_stall_ps(self) -> int:
        """All stall time charged so far."""
        return (self.load_stall_ps + self.store_stall_ps
                + self.ifetch_stall_ps + self.tlb_stall_ps)

    def reset_stats(self) -> None:
        """Zero all counters (cache contents are preserved)."""
        self.load_stall_ps = self.store_stall_ps = 0
        self.ifetch_stall_ps = self.tlb_stall_ps = 0
        for cache in (self.l1d, self.l1i, self.l2):
            if cache is not None:
                cache.stats.reset()
        for tlb in (self.dtlb, self.itlb):
            if tlb is not None:
                tlb.stats.reset()
        self.memory.stats.reset()


# ----------------------------------------------------------------------
# Builders for the paper's two hierarchies
# ----------------------------------------------------------------------
def build_host_hierarchy(
    clock: Clock,
    scaled_for_database: bool = False,
    memory: Optional[Rdram] = None,
    timing: HierarchyTiming = HierarchyTiming(),
    extra_scale_divisor: int = 1,
) -> MemoryHierarchy:
    """The paper's host hierarchy.

    32 KB 2-way L1 I/D + 512 KB 2-way L2 with 128 B lines; for the
    database applications (HashJoin, Select) the caches are scaled down
    by 8x: 8 KB L1 data and 64 KB L2 ("keeping the same line sizes and
    associativities").

    ``extra_scale_divisor`` applies the same methodology one step
    further: when an experiment's *input* is scaled down by N for
    simulation speed, dividing the cache sizes by N preserves the
    capacity-miss behaviour (exactly how the paper ran 16 MB/128 MB
    tables to model 128 MB/1 GB ones).
    """
    divisor = extra_scale_divisor
    if divisor < 1 or divisor & (divisor - 1):
        raise ValueError(f"cache scale divisor must be a power of two, got {divisor}")
    if scaled_for_database:
        l1d = Cache(CacheConfig("host-L1D", 8 * 1024 // divisor, 32, 2))
        l2 = Cache(CacheConfig("host-L2", 64 * 1024 // divisor, 128, 2))
    else:
        l1d = Cache(CacheConfig("host-L1D", 32 * 1024 // divisor, 32, 2))
        l2 = Cache(CacheConfig("host-L2", 512 * 1024 // divisor, 128, 2))
    l1i = Cache(CacheConfig("host-L1I", 32 * 1024, 32, 2))
    return MemoryHierarchy(
        l1d=l1d,
        l1i=l1i,
        l2=l2,
        dtlb=TLB(TLBConfig("host-DTLB", entries=64)),
        itlb=TLB(TLBConfig("host-ITLB", entries=64)),
        memory=memory if memory is not None else Rdram(RdramConfig()),
        clock=clock,
        timing=timing,
    )


def build_switch_hierarchy(
    clock: Clock,
    memory: Optional[Rdram] = None,
) -> MemoryHierarchy:
    """The embedded switch CPU hierarchy.

    4 KB 2-way I-cache with 64 B lines, 1 KB 2-way D-cache with 32 B
    lines, no L2, one outstanding request (so stores block fully).
    """
    timing = HierarchyTiming(store_overlap_factor=1.0, l2_hit_stall_cycles=0)
    return MemoryHierarchy(
        l1d=Cache(CacheConfig("switch-L1D", 1024, 32, 2)),
        l1i=Cache(CacheConfig("switch-L1I", 4096, 64, 2)),
        l2=None,
        dtlb=None,
        itlb=None,
        memory=memory if memory is not None else Rdram(RdramConfig()),
        clock=clock,
        timing=timing,
    )
