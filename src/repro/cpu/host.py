"""Host processor model.

A 2 GHz single-issue in-order core (the paper notes the host model is
deliberately simple: "what really matters in this research is the
relative performance of the host processor and the embedded switch
processor").  Applications drive it with *work items*: a busy cycle
count plus a data-reference pattern; the memory hierarchy converts the
references into stall time.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..mem.hierarchy import MemoryHierarchy
from ..sim.core import Environment
from ..sim.units import Clock
from .accounting import CpuAccounting, occupy

#: Paper host clock: 2 GHz.
HOST_FREQ_HZ = 2_000_000_000


class HostCPU:
    """The host processor: executes compute work and memory references."""

    def __init__(
        self,
        env: Environment,
        hierarchy: MemoryHierarchy,
        name: str = "host",
        clock: Optional[Clock] = None,
    ):
        self.env = env
        self.clock = clock if clock is not None else Clock(HOST_FREQ_HZ)
        self.hierarchy = hierarchy
        self.name = name
        self.accounting = CpuAccounting(name)

    # ------------------------------------------------------------------
    # Synchronous cost helpers (no simulated time passes)
    # ------------------------------------------------------------------
    def reference_cost(self, loads: Iterable[int] = (),
                       stores: Iterable[int] = ()) -> int:
        """Stall ps for a set of data references, updating cache state."""
        stall = 0
        for addr in loads:
            stall += self.hierarchy.load(addr)
        for addr in stores:
            stall += self.hierarchy.store(addr)
        return stall

    def scan_cost(self, addr: int, nbytes: int, write: bool = False) -> int:
        """Stall ps for a sequential scan over a byte range."""
        if write:
            return self.hierarchy.store_range(addr, nbytes)
        return self.hierarchy.load_range(addr, nbytes)

    # ------------------------------------------------------------------
    # Timed execution (generators to be yielded from app processes)
    # ------------------------------------------------------------------
    def work(self, busy_cycles: float = 0, stall_ps: int = 0):
        """Execute ``busy_cycles`` of computation plus ``stall_ps`` of
        memory stalls; returns a process-able generator."""
        return occupy(self, self.clock.cycles(busy_cycles), stall_ps)

    def busy(self, duration_ps: int):
        """Occupy the CPU with non-cache busy time (e.g. OS overhead)."""
        return occupy(self, duration_ps, 0)

    def stall(self, duration_ps: int):
        """Explicit stall time (charged to the cache-stall bucket)."""
        return occupy(self, 0, duration_ps)

    def __repr__(self) -> str:
        return f"<HostCPU {self.name} @ {self.clock.freq_hz / 1e9:g} GHz>"
