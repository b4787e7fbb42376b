"""Set-associative cache model.

A functional (non-timed) cache: :meth:`Cache.access` updates tag state
and reports hit/miss/writeback.  Timing is assigned by
:class:`repro.mem.hierarchy.MemoryHierarchy`, which layers latencies on
top of the hit/miss outcomes.

The model is write-back / write-allocate with true LRU replacement, which
matches the level of detail the paper reports (it quotes only sizes,
associativities and line sizes).

State: every set's ways live in one flat ``array('q')``, set ``s`` at
``[s * assoc, (s + 1) * assoc)``, LRU first and MRU last, each entry
``tag << 1 | dirty`` and :data:`EMPTY` for a way never filled (empty
ways sit at the LRU end).  Without numpy the same layout is a list,
which the walk indexes faster.  Two deciders share that state:

* the walk indexes it directly, one access at a time, for any
  associativity: :meth:`Cache._access` for one access and
  :meth:`Cache._walk` for a sequence;
* the sequence decider, :meth:`Cache._decide`, decides a whole
  sequence of accesses at once with numpy, through a zero-copy
  ``np.frombuffer`` view.  It is exact for caches of at most
  :data:`MAX_DECIDED_ASSOC` ways, which covers every cache the paper
  models.

:class:`repro.mem.hierarchy.MemoryHierarchy` picks between them per
sequence.  The internal paths return plain ints and commit statistics
once per call; the :class:`AccessResult` dataclass survives as a thin
wrapper on the public :meth:`access`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

try:  # numpy decides whole sequences; without it every access walks.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI jobs
    _np = None


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    line_size: int
    assoc: int

    def __post_init__(self):
        if self.size_bytes <= 0 or self.line_size <= 0 or self.assoc <= 0:
            raise ValueError(f"cache parameters must be positive: {self}")
        if self.size_bytes % (self.line_size * self.assoc):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line_size*assoc = {self.line_size * self.assoc}")
        if self.line_size & (self.line_size - 1):
            raise ValueError(f"{self.name}: line size must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_size * self.assoc)


@dataclass
class CacheStats:
    """Access counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = 0
        self.evictions = self.writebacks = 0


@dataclass
class AccessResult:
    """Outcome of a single cache access (public-API wrapper).

    The internal hot path never allocates these; they are built only by
    :meth:`Cache.access` from its int-coded result.
    """

    hit: bool
    writeback: bool = False
    evicted_tag: int = field(default=-1)


#: Bit flags of the int-coded internal access result.
HIT = 1
WRITEBACK = 2

#: Way entry of an empty slot; tags are never negative, so no tag
#: matches it.
EMPTY = -1

#: Largest associativity :meth:`Cache._decide` is exact for.
MAX_DECIDED_ASSOC = 2


def _empty_ways(count: int):
    """``count`` empty ways: an ``array('q')`` that numpy views without a
    copy, or, without numpy, a list, which the walk indexes faster."""
    return (array("q", (EMPTY,)) if _np is not None else [EMPTY]) * count


class Cache:
    """One level of write-back, write-allocate, LRU set-associative cache."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        num_sets = config.num_sets
        if num_sets & (num_sets - 1):
            raise ValueError(f"{config.name}: number of sets must be a power of two")
        self._set_mask = num_sets - 1
        self._line_shift = config.line_size.bit_length() - 1
        self._tag_shift = self._set_mask.bit_length()
        self._assoc = config.assoc
        # Every set's ways, LRU first; each entry is tag << 1 | dirty.
        self._ways = _empty_ways(num_sets * config.assoc)

    def _locate(self, addr: int):
        line = addr >> self._line_shift
        return line & self._set_mask, line >> self._tag_shift

    # ------------------------------------------------------------------
    # The walk (any associativity)
    # ------------------------------------------------------------------
    def _access(self, addr: int, write: bool = False) -> int:
        """Access ``addr``; returns ``HIT`` and/or ``WRITEBACK`` flags."""
        line = addr >> self._line_shift
        tag = line >> self._tag_shift
        lru = (line & self._set_mask) * self._assoc
        mru = lru + self._assoc - 1
        ways = self._ways
        stats = self.stats
        stats.accesses += 1
        way = mru
        while way >= lru:
            entry = ways[way]
            if entry >> 1 == tag:
                stats.hits += 1
                # Shift the more recent ways down one; this one is MRU.
                while way < mru:
                    ways[way] = ways[way + 1]
                    way += 1
                ways[mru] = entry | write
                return HIT
            way -= 1
        stats.misses += 1
        code = 0
        victim = ways[lru]
        if victim != EMPTY:
            stats.evictions += 1
            if victim & 1:
                stats.writebacks += 1
                code = WRITEBACK
        while lru < mru:
            ways[lru] = ways[lru + 1]
            lru += 1
        ways[mru] = tag << 1 | write
        return code

    def _walk(self, addrs: Sequence[int],
              writes: Sequence[bool]) -> Tuple[List[int], int]:
        """Access each of ``addrs`` in order, one at a time, in one call.

        ``writes`` is a parallel sequence of flags.  State and
        statistics evolve exactly as one :meth:`_access` per address.
        Returns ``(missed, writebacks)``: the positions in ``addrs``
        that missed, and the dirty evictions.  A 2-way cache (every
        cache the paper models) walks inline; any other associativity
        goes through :meth:`_access`.
        """
        missed = []
        writebacks = 0
        if self._assoc != 2:
            access = self._access
            for position, addr in enumerate(addrs):
                code = access(addr, writes[position])
                if not code & HIT:
                    missed.append(position)
                    if code & WRITEBACK:
                        writebacks += 1
            return missed, writebacks
        ways = self._ways
        line_shift = self._line_shift
        tag_shift = self._tag_shift
        set_mask = self._set_mask
        evictions = 0
        previous = mru = -1
        for position, addr in enumerate(addrs):
            line = addr >> line_shift
            if line == previous:
                # The line of the access before: its set's MRU way.
                if writes[position]:
                    ways[mru] |= 1
                continue
            previous = line
            tag = line >> tag_shift
            mru = (line & set_mask) * 2 + 1
            entry = ways[mru]
            if entry >> 1 == tag:
                if writes[position]:
                    ways[mru] = entry | 1
                continue
            lru_entry = ways[mru - 1]
            ways[mru - 1] = entry
            if lru_entry >> 1 == tag:
                ways[mru] = lru_entry | writes[position]
                continue
            missed.append(position)
            ways[mru] = tag << 1 | writes[position]
            if lru_entry != EMPTY:
                evictions += 1
                writebacks += lru_entry & 1
        count = len(addrs)
        stats = self.stats
        stats.accesses += count
        stats.hits += count - len(missed)
        stats.misses += len(missed)
        stats.evictions += evictions
        stats.writebacks += writebacks
        return missed, writebacks

    # ------------------------------------------------------------------
    # The sequence decider (numpy, at most MAX_DECIDED_ASSOC ways)
    # ------------------------------------------------------------------
    def _decide(self, addrs, writes) -> Tuple[object, int]:
        """Access each of ``addrs`` (int64 array) in order, in one pass.

        ``writes`` is a parallel bool array.  Exact for caches of at
        most two ways.  Each touched set's accesses are sorted stably
        behind its current ways, LRU first; an access repeating the
        entry before it (the set's MRU line) is a hit that only ORs its
        write into that entry, so it is folded into it.  After folding,
        a set of ``assoc`` ways holds exactly the last ``assoc`` entries
        of its sequence, so an access hits exactly when its tag equals
        the entry ``assoc`` places back.  Entries ``assoc`` apart that
        hit form a chain: one line's stay in the set.  A chain followed
        by a miss in its class ends in that miss evicting it, and the
        evicted line is dirty when its fill or any hit along the chain
        wrote.  The last ``assoc`` entries of each set are its new
        ways.  Returns ``(missed, writebacks)``: a bool array marking
        the misses in input order, and the dirty evictions.
        """
        np = _np
        assoc = self._assoc
        lines = addrs >> self._line_shift
        sets = lines & self._set_mask
        touched = np.zeros(self._set_mask + 1, dtype=bool)
        touched[sets] = True
        touched = touched.nonzero()[0]
        ways = np.frombuffer(self._ways, dtype=np.int64).reshape(-1, assoc)
        prefix = len(touched) * assoc
        order = np.concatenate((touched.repeat(assoc), sets)).argsort(
            kind="stable")
        entries = np.concatenate((
            ways[touched].ravel(),
            (lines >> self._tag_shift) << 1 | writes))[order]
        tags = entries >> 1
        is_access = order >= prefix
        keep = ~is_access
        keep[1:] |= tags[1:] != tags[:-1]
        keep = keep.nonzero()[0]
        dirty = np.bitwise_or.reduceat(entries & 1, keep)
        tags = tags[keep]
        is_access = is_access[keep]
        start = ~is_access
        start[assoc:] |= tags[assoc:] != tags[:-assoc]
        missed_at = start & is_access
        evictions = writebacks = 0
        for r in range(assoc):
            heads = start[r::assoc].nonzero()[0]
            chain_dirty = np.bitwise_or.reduceat(dirty[r::assoc], heads)
            evicted = missed_at[r::assoc][heads[1:]]
            evicted &= tags[r::assoc][heads[:-1]] != EMPTY
            evictions += int(np.count_nonzero(evicted))
            writebacks += int(np.count_nonzero(chain_dirty[:-1][evicted]))
            # Each chain's last entry takes the whole chain's dirty bit.
            dirty[r::assoc][heads[1:] - 1] = chain_dirty[:-1]
            dirty[r::assoc][-1] = chain_dirty[-1]
        # The last assoc entries of each set are its ways, LRU first.
        # (EMPTY round-trips: tag -1 with its dirty bit set.)
        ends = (~is_access).nonzero()[0][assoc::assoc]
        last = np.concatenate((ends, (len(tags),)))[:, None] - np.arange(
            assoc, 0, -1)
        ways[touched] = tags[last] << 1 | dirty[last]
        missed = np.zeros(len(addrs), dtype=bool)
        missed[order[keep[missed_at]] - prefix] = True
        count = len(addrs)
        misses = int(np.count_nonzero(missed_at))
        stats = self.stats
        stats.accesses += count
        stats.hits += count - misses
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        return missed, writebacks

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def access(self, addr: int, write: bool = False) -> AccessResult:
        """Access ``addr``; returns hit/miss and any writeback triggered."""
        set_index, tag = self._locate(addr)
        victim = self._ways[set_index * self._assoc]
        code = self._access(addr, write=write)
        if code & HIT:
            return AccessResult(hit=True)
        return AccessResult(hit=False, writeback=bool(code & WRITEBACK),
                            evicted_tag=victim >> 1)

    def contains(self, addr: int) -> bool:
        """True if the line holding ``addr`` is resident (no state change)."""
        set_index, tag = self._locate(addr)
        lru = set_index * self._assoc
        return any(entry >> 1 == tag
                   for entry in self._ways[lru:lru + self._assoc])

    def sets(self) -> List[List[Tuple[int, bool]]]:
        """Each set's resident lines as ``(tag, dirty)``, LRU first."""
        assoc = self._assoc
        ways = self._ways
        return [[(entry >> 1, bool(entry & 1))
                 for entry in ways[lru:lru + assoc] if entry != EMPTY]
                for lru in range(0, len(ways), assoc)]

    def access_range(self, addr: int, nbytes: int,
                     write: bool = False) -> Tuple[int, int]:
        """Access every line in ``[addr, addr+nbytes)`` in one call.

        Returns ``(misses, writebacks)``.  State and statistics evolve
        exactly as the equivalent sequence of :meth:`access` calls; an
        empty range touches nothing.
        """
        if nbytes <= 0:
            return 0, 0
        line = self.config.line_size
        lines = range(addr - addr % line, addr + nbytes, line)
        missed, writebacks = self._walk(lines, [write] * len(lines))
        return len(missed), writebacks

    def touch_range(self, addr: int, nbytes: int, write: bool = False) -> int:
        """Access every line in ``[addr, addr+nbytes)``; returns miss count."""
        return self.access_range(addr, nbytes, write=write)[0]

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines.

        Dirty lines leave through :attr:`CacheStats.writebacks`, the
        same counter eviction-time write-backs use, so total traffic
        accounting stays consistent whether a line dies by eviction or
        by flush.
        """
        ways = self._ways
        dirty_count = sum(1 for entry in ways if entry != EMPTY and entry & 1)
        self._ways = _empty_ways(len(ways))
        self.stats.writebacks += dirty_count
        return dirty_count

    def __repr__(self) -> str:
        c = self.config
        return (f"<Cache {c.name}: {c.size_bytes} B, {c.assoc}-way, "
                f"{c.line_size} B lines, miss rate {self.stats.miss_rate:.3f}>")
