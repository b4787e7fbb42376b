"""Fully-associative TLB model with LRU replacement.

The paper's host processor has fully-associative 64-entry instruction and
data TLBs; the simulator "accurately models the latency and cache effects
of TLB misses".  We model the hit/miss behaviour here and let the
hierarchy charge the page-walk latency (which itself goes through the
cache model, giving the "cache effects").

The entry store is one insertion-ordered ``dict`` (page -> None, LRU
first) so hit, touch, and replacement are all O(1) instead of a
``list.index`` scan over up to 64 entries per access.  Both memory
sequence deciders translate through :meth:`TLB._misses`, once per run
of accesses to one page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of a fully-associative TLB."""

    name: str
    entries: int = 64
    page_size: int = 4096

    def __post_init__(self):
        if self.entries <= 0:
            raise ValueError(f"{self.name}: entries must be positive")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError(f"{self.name}: page size must be a positive power of two")


@dataclass
class TLBStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.misses = 0


class TLB:
    """Fully-associative, LRU translation lookaside buffer."""

    def __init__(self, config: TLBConfig):
        self.config = config
        self.stats = TLBStats()
        self._page_shift = config.page_size.bit_length() - 1
        # page -> None, insertion-ordered (LRU first, MRU last).
        self._pages: dict = {}

    def access(self, addr: int) -> bool:
        """Translate ``addr``; returns True on hit."""
        page = addr >> self._page_shift
        pages = self._pages
        self.stats.accesses += 1
        if page in pages:
            del pages[page]
            pages[page] = None
            return True
        self.stats.misses += 1
        if len(pages) >= self.config.entries:
            del pages[next(iter(pages))]
        pages[page] = None
        return False

    def _misses(self, pages: Sequence[int]) -> List[int]:
        """Translate each of ``pages`` (page numbers) in order.

        Returns the positions in ``pages`` that missed.  The sequence
        deciders call this once per run of accesses to one page: the
        rest of a run hits the MRU entry and changes nothing.
        """
        entries = self._pages
        limit = self.config.entries
        missed = []
        for position, page in enumerate(pages):
            if page in entries:
                del entries[page]
            else:
                missed.append(position)
                if len(entries) >= limit:
                    del entries[next(iter(entries))]
            entries[page] = None
        self.stats.accesses += len(pages)
        self.stats.misses += len(missed)
        return missed

    def flush(self) -> None:
        """Invalidate all entries."""
        self._pages.clear()

    def __repr__(self) -> str:
        c = self.config
        return f"<TLB {c.name}: {c.entries} entries, miss rate {self.stats.miss_rate:.4f}>"
