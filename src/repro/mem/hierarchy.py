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

Sequences — the scans (``load_range`` / ``store_range`` /
``load_stride`` / ``store_stride``) and :meth:`MemoryHierarchy.access_many`
— are decided whole, by one of two deciders over the same state:

* the numpy decider (:meth:`MemoryHierarchy._decide`) takes each level
  over the whole sequence in turn: the TLB first, because its state
  never depends on the caches, with each miss's page-table references
  placed before the access that missed; then L1
  (:meth:`Cache._decide`); then L2 over L1's misses; then RDRAM's open
  pages over L2's misses (:meth:`Rdram._decide`);
* the walk (:meth:`MemoryHierarchy._walk`) takes the same levels in
  the same order, each one access at a time (:meth:`Cache._walk`).

:meth:`MemoryHierarchy._sequence` picks the numpy decider when numpy
imports, every data cache has at most two ways and the sequence has at
least :data:`NUMPY_MIN_ACCESSES` accesses, and the walk otherwise; no
flag selects either.  Every counter and every stall sum is bit-identical
to issuing the same accesses one ``load`` / ``store`` at a time, which
the per-line oracle in ``tests/mem`` checks for both deciders.
:data:`DECIDED` counts which decider took how much.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..sim.units import Clock
from .cache import HIT, MAX_DECIDED_ASSOC, WRITEBACK, Cache, CacheConfig, _np
from .rdram import Rdram, RdramConfig
from .tlb import TLB, TLBConfig

#: Shortest sequence the numpy decider takes.  Its cost is mostly a
#: fixed number of numpy calls per level, so below this length the walk
#: is cheaper on the paper's hierarchies (docs/performance.md).
NUMPY_MIN_ACCESSES = 256

#: Sequences and accesses each decider has taken in this process, as
#: ``"numpy.sequences"``, ``"numpy.accesses"``, ``"walk.sequences"`` and
#: ``"walk.accesses"``.  Kept outside every statistics object, so no
#: result depends on which decider ran.
DECIDED: Counter = Counter()

#: Kinds of access in a decided sequence: what each stall is charged as.
_LOAD, _STORE, _WALK = 0, 1, 2


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
        if dtlb is not None and l1d.config.line_size > dtlb.config.page_size:
            raise ValueError(f"{l1d.config.name}: a line may not span "
                             f"{dtlb.config.name} pages")
        # timing and clock are immutable; precompute the fixed stalls.
        self._l2_hit_ps = clock.cycles(timing.l2_hit_stall_cycles)
        self._l2_store_ps = round(self._l2_hit_ps
                                  * timing.store_overlap_factor)
        self._refill_ps = clock.cycles(timing.tlb_refill_cycles)
        # The numpy decider is exact only while every data cache it
        # drives has at most MAX_DECIDED_ASSOC ways.
        self._decidable = all(cache.config.assoc <= MAX_DECIDED_ASSOC
                              for cache in (l1d, l2) if cache is not None)
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
        stall = self._refill_ps
        page = addr >> tlb._page_shift
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

    def access_many(self, addrs: Sequence[int],
                    writes: Union[bool, Sequence[bool]]) -> int:
        """Data loads and stores at each of ``addrs`` in order, in one call.

        ``writes`` is one flag for every access or one per access (True
        stores).  Returns the summed stall; state, statistics and stall
        sums end exactly as after one ``load`` / ``store`` per address.
        """
        return self._sequence(addrs, writes)

    def load_range(self, addr: int, nbytes: int) -> int:
        """Sequential loads touching every line of a byte range."""
        return self._scan_range(addr, nbytes, write=False)

    def store_range(self, addr: int, nbytes: int) -> int:
        """Sequential stores touching every line of a byte range."""
        return self._scan_range(addr, nbytes, write=True)

    def load_stride(self, addr: int, stride: int, count: int) -> int:
        """``count`` loads at ``addr, addr+stride, ...`` (record scans)."""
        return self._sequence(_strided(addr, stride, count), False)

    def store_stride(self, addr: int, stride: int, count: int) -> int:
        """``count`` stores at ``addr, addr+stride, ...``."""
        return self._sequence(_strided(addr, stride, count), True)

    def _scan_range(self, addr: int, nbytes: int, write: bool) -> int:
        """Every line of ``[addr, addr+nbytes)``; an empty range is free."""
        if nbytes <= 0:
            return 0
        line = self.l1d.config.line_size
        return self._sequence(range(addr - addr % line, addr + nbytes, line),
                              write)

    # ------------------------------------------------------------------
    # Sequences: pick a decider
    # ------------------------------------------------------------------
    def _sequence(self, addrs: Sequence[int],
                  writes: Union[bool, Sequence[bool]]) -> int:
        """Stall of data accesses at ``addrs`` in order; picks a decider."""
        count = len(addrs)
        if not count:
            return 0
        if (_np is not None and self._decidable
                and count >= NUMPY_MIN_ACCESSES):
            decider = "numpy"
            stall = self._decide(addrs, writes)
        else:
            decider = "walk"
            stall = self._walk(addrs, writes)
        DECIDED[decider + ".sequences"] += 1
        DECIDED[decider + ".accesses"] += count
        return stall

    def _walk(self, addrs: Sequence[int],
              writes: Union[bool, Sequence[bool]]) -> int:
        """The walk: the levels in the numpy decider's order, each one
        access at a time (:meth:`TLB._misses`, :meth:`Cache._walk`,
        :meth:`Rdram._walk`).
        """
        addrs = list(addrs)
        count = len(addrs)
        if isinstance(writes, bool):
            kinds = [_STORE if writes else _LOAD] * count
        else:
            kinds = [_STORE if write else _LOAD for write in writes]
        tlb_misses = 0
        tlb = self.dtlb
        if tlb is not None:
            shift = tlb._page_shift
            runs, pages, page = [], [], -1
            for position, addr in enumerate(addrs):
                if addr >> shift != page:
                    page = addr >> shift
                    runs.append(position)
                    pages.append(page)
            missed = [runs[run] for run in tlb._misses(pages)]
            tlb.stats.accesses += count - len(runs)
            tlb_misses = len(missed)
            refs = range(self.timing.tlb_walk_refs)
            if missed and refs:
                # Each miss's page-table walk goes before the access
                # that missed.
                merged, merged_kinds, done = [], [], 0
                for position in missed:
                    page = addrs[position] >> shift
                    merged += addrs[done:position]
                    merged += [self._PAGE_TABLE_BASE + (page + ref) * 8
                               for ref in refs]
                    merged_kinds += kinds[done:position]
                    merged_kinds += [_WALK] * len(refs)
                    done = position
                addrs = merged + addrs[done:]
                kinds = merged_kinds + kinds[done:]
        memory = self.memory
        missed, _ = self.l1d._walk(addrs, [kind == _STORE for kind in kinds])
        addrs = [addrs[position] for position in missed]
        kinds = [kinds[position] for position in missed]
        l2 = self.l2
        l2_hits = [0, 0, 0]
        if l2 is not None and addrs:
            missed, writebacks = l2._walk(
                addrs, [kind == _STORE for kind in kinds])
            if writebacks:
                # Off the critical path, bandwidth accounted.
                memory.stream(writebacks * l2.config.line_size)
            l2_hits = [kinds.count(kind) for kind in (_LOAD, _STORE, _WALK)]
            addrs = [addrs[position] for position in missed]
            kinds = [kinds[position] for position in missed]
            for kind in kinds:
                l2_hits[kind] -= 1
        page_hits = [0, 0, 0]
        page_misses = [kinds.count(kind) for kind in (_LOAD, _STORE, _WALK)]
        if addrs:
            for position in memory._walk(addrs, self.l1d.config.line_size):
                page_hits[kinds[position]] += 1
                page_misses[kinds[position]] -= 1
        return self._charge(tlb_misses, l2_hits, page_hits, page_misses)

    def _decide(self, addrs: Sequence[int],
                writes: Union[bool, Sequence[bool]]) -> int:
        """The numpy decider: each level over the whole sequence in turn."""
        np = _np
        if isinstance(addrs, range):
            addrs = np.arange(addrs.start, addrs.stop, addrs.step,
                              dtype=np.int64)
        else:
            addrs = np.asarray(addrs, dtype=np.int64)
        if isinstance(writes, bool):
            kinds = np.full(len(addrs), _STORE if writes else _LOAD,
                            dtype=np.int8)
        else:
            kinds = np.asarray(writes, dtype=np.int8)
        tlb_misses = 0
        tlb = self.dtlb
        if tlb is not None:
            pages = addrs >> tlb._page_shift
            runs = np.ones(len(pages), dtype=bool)
            runs[1:] = pages[1:] != pages[:-1]
            runs = runs.nonzero()[0]
            missed = runs[tlb._misses(pages[runs].tolist())]
            tlb.stats.accesses += len(addrs) - len(runs)
            tlb_misses = len(missed)
            refs = self.timing.tlb_walk_refs
            if tlb_misses and refs:
                # Each miss's page-table walk goes before the access
                # that missed.
                walks = self._PAGE_TABLE_BASE + 8 * (
                    pages[missed, None] + np.arange(refs))
                at = missed.repeat(refs)
                addrs = np.insert(addrs, at, walks.ravel())
                kinds = np.insert(kinds, at, _WALK)
        memory = self.memory
        missed, _ = self.l1d._decide(addrs, kinds == _STORE)
        addrs, kinds = addrs[missed], kinds[missed]
        l2 = self.l2
        l2_hits = [0, 0, 0]
        if l2 is not None and len(addrs):
            missed, writebacks = l2._decide(addrs, kinds == _STORE)
            if writebacks:
                # Off the critical path, bandwidth accounted.
                memory.stream(writebacks * l2.config.line_size)
            l2_hits = np.bincount(kinds[~missed], minlength=3).tolist()
            addrs, kinds = addrs[missed], kinds[missed]
        page_hits = page_misses = [0, 0, 0]
        if len(addrs):
            hit = memory._decide(addrs, self.l1d.config.line_size)
            page_hits = np.bincount(kinds[hit], minlength=3).tolist()
            page_misses = np.bincount(kinds[~hit], minlength=3).tolist()
        return self._charge(tlb_misses, l2_hits, page_hits, page_misses)

    def _charge(self, tlb_misses: int, l2_hits, page_hits,
                page_misses) -> int:
        """Charge a decided sequence's stalls; returns their sum.

        The last three arguments count L1 misses per kind of access
        (load, store, page-table walk reference) by where they were
        filled from.  A store's stall is rounded per access, but every
        L1 miss costs one of three latencies (L2 hit, page hit, page
        miss), so each stall sum is a count per kind and latency times
        that latency.
        """
        hit_ps, miss_ps = self.memory.fill_latencies(
            self.l1d.config.line_size)
        overlap = self.timing.store_overlap_factor
        load, _, walk = [
            l2_hits[kind] * self._l2_hit_ps + page_hits[kind] * hit_ps
            + page_misses[kind] * miss_ps for kind in (_LOAD, _STORE, _WALK)]
        store = (l2_hits[_STORE] * self._l2_store_ps
                 + page_hits[_STORE] * round(hit_ps * overlap)
                 + page_misses[_STORE] * round(miss_ps * overlap))
        tlb = tlb_misses * self._refill_ps + walk
        self.load_stall_ps += load
        self.store_stall_ps += store
        self.tlb_stall_ps += tlb
        return load + store + tlb

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


def _strided(addr: int, stride: int, count: int) -> Sequence[int]:
    """The addresses ``addr, addr+stride, ...`` of a ``count``-long scan."""
    if stride:
        return range(addr, addr + max(count, 0) * stride, stride)
    return (addr,) * max(count, 0)


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
