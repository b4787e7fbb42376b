"""RDRAM main-memory model.

The paper: "Our simulator accurately models an RDRAM memory system for
both the host and switch.  The maximum bandwidth of both systems is
1.6 GB/s.  The latency of a page hit is 100ns and 122ns for a page miss."

We model per-bank open pages (a page miss closes/opens the sense amps,
hence the extra 22 ns) and account for bandwidth when bulk data streams
through memory (I/O buffers, message payloads).

The open-page policy has two deciders, like the caches: the walk,
:meth:`Rdram._walk` (behind :meth:`Rdram.access` and
:meth:`Rdram.access_lines`), takes fills one at a time, and
:meth:`Rdram._decide` takes a whole numpy sequence of fills at once.
A bank behaves like one direct-mapped cache line whose tag is its open
page, so a fill hits exactly when its page equals the previous page of
its bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..sim.units import ns, transfer_ps
from .cache import _np


@dataclass(frozen=True)
class RdramConfig:
    """Timing and geometry of the RDRAM system."""

    bandwidth_bytes_per_s: float = 1.6e9
    page_hit_ps: int = ns(100)
    page_miss_ps: int = ns(122)
    num_banks: int = 16
    page_size: int = 2048

    def __post_init__(self):
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("memory bandwidth must be positive")
        if self.page_miss_ps < self.page_hit_ps:
            raise ValueError("page miss cannot be faster than page hit")
        if self.num_banks <= 0 or self.page_size <= 0:
            raise ValueError("banks and page size must be positive")


@dataclass
class RdramStats:
    accesses: int = 0
    page_hits: int = 0
    page_misses: int = 0
    bytes_transferred: int = 0

    @property
    def page_hit_rate(self) -> float:
        return self.page_hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.page_hits = self.page_misses = 0
        self.bytes_transferred = 0


class Rdram:
    """Open-page RDRAM: returns latency in picoseconds per access."""

    def __init__(self, config: RdramConfig = RdramConfig()):
        self.config = config
        self.stats = RdramStats()
        self._open_pages = [-1] * config.num_banks
        self._page_shift = config.page_size.bit_length() - 1
        # Transfer time is a pure function of nbytes; line fills and
        # write-backs use only a handful of sizes, so memoise instead of
        # recomputing the float division + rounding on every call.
        self._transfer_ps: dict = {}
        self._fill_ps: dict = {}

    def _transfer(self, nbytes: int) -> int:
        ps = self._transfer_ps.get(nbytes)
        if ps is None:
            ps = self._transfer_ps[nbytes] = transfer_ps(
                nbytes, self.config.bandwidth_bytes_per_s)
        return ps

    def fill_latencies(self, nbytes: int) -> Tuple[int, int]:
        """``(page hit, page miss)`` latency of one ``nbytes`` line fill."""
        latencies = self._fill_ps.get(nbytes)
        if latencies is None:
            if nbytes <= 0:
                raise ValueError(f"nbytes must be positive, got {nbytes}")
            # Data burst after the access latency.
            burst = self._transfer(nbytes)
            latencies = self._fill_ps[nbytes] = (
                self.config.page_hit_ps + burst,
                self.config.page_miss_ps + burst)
        return latencies

    def access(self, addr: int, nbytes: int = 128) -> int:
        """Latency of one line fill/writeback at ``addr``."""
        hit_ps, miss_ps = (self._fill_ps.get(nbytes)
                           or self.fill_latencies(nbytes))
        return hit_ps if self._walk((addr,), nbytes) else miss_ps

    def access_lines(self, addrs: Sequence[int], nbytes: int) -> int:
        """``nbytes`` line fills at each of ``addrs`` in order, in one call.

        Returns the number of page hits; each fill costs the matching
        entry of :meth:`fill_latencies`.
        """
        return len(self._walk(addrs, nbytes))

    def _walk(self, addrs: Sequence[int], nbytes: int) -> List[int]:
        """The walk of the open-page policy; returns the hits' positions.

        Each fill hits if its bank still has the fill's page open, and
        otherwise opens it.
        """
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        open_pages = self._open_pages
        page_shift = self._page_shift
        num_banks = self.config.num_banks
        hits = []
        for position, addr in enumerate(addrs):
            page = addr >> page_shift
            bank = page % num_banks
            if open_pages[bank] == page:
                hits.append(position)
            else:
                open_pages[bank] = page
        self._count(len(addrs), len(hits), nbytes)
        return hits

    def _decide(self, addrs, nbytes: int):
        """:meth:`_walk` over an int64 array, in one vector pass.

        The fills are sorted stably by bank behind each bank's open
        page; a fill hits when its page equals the entry before it.
        Returns a bool array marking the page hits in input order.
        """
        np = _np
        pages = addrs >> self._page_shift
        banks = pages % self.config.num_banks
        order = np.argsort(banks, kind="stable")
        pages = pages[order]
        banks = banks[order]
        first = np.ones(len(banks), dtype=bool)
        first[1:] = banks[1:] != banks[:-1]
        before = np.empty_like(pages)
        before[1:] = pages[:-1]
        before[first] = np.array(self._open_pages)[banks[first]]
        hits = np.empty(len(pages), dtype=bool)
        hits[order] = pages == before
        last = np.append(first.nonzero()[0][1:], len(pages)) - 1
        for bank, page in zip(banks[last].tolist(), pages[last].tolist()):
            self._open_pages[bank] = page
        self._count(len(pages), int(hits.sum()), nbytes)
        return hits

    def _count(self, fills: int, hits: int, nbytes: int) -> None:
        stats = self.stats
        stats.accesses += fills
        stats.page_hits += hits
        stats.page_misses += fills - hits
        stats.bytes_transferred += fills * nbytes

    def stream(self, nbytes: int) -> int:
        """Bandwidth-limited time for a large sequential transfer."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        self.stats.bytes_transferred += nbytes
        return self._transfer(nbytes)

    def __repr__(self) -> str:
        return (f"<Rdram {self.config.bandwidth_bytes_per_s / 1e9:g} GB/s, "
                f"page hit rate {self.stats.page_hit_rate:.3f}>")
