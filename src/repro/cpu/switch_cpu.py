"""Embedded switch processor model.

A 500 MHz single-issue MIPS-like core — one quarter the host clock —
with a 4 KB I-cache and a 1 KB D-cache (one outstanding request each).
ISA extensions let handlers check hardware status, send data buffers,
and request/release buffers; those show up here as fixed cycle charges.

An active switch holds 1-4 of these; the Dispatch unit schedules
handlers onto whichever core is free (see
:mod:`repro.switch.dispatch`).
"""

from __future__ import annotations

from typing import Optional

from ..mem.hierarchy import MemoryHierarchy, build_switch_hierarchy
from ..sim.core import Environment
from ..sim.units import Clock
from .accounting import CpuAccounting, occupy

#: Paper switch clock: 500 MHz (host runs at 4x this speed).
SWITCH_FREQ_HZ = 500_000_000

#: Cycle costs of the switch-specific ISA extensions.
SEND_BUFFER_CYCLES = 4
ALLOC_BUFFER_CYCLES = 2
RELEASE_BUFFER_CYCLES = 2
STATUS_CHECK_CYCLES = 1


class SwitchCPU:
    """One embedded processor inside an active switch."""

    def __init__(
        self,
        env: Environment,
        cpu_id: int = 0,
        name: str = "switch-cpu",
        hierarchy: Optional[MemoryHierarchy] = None,
        clock: Optional[Clock] = None,
    ):
        self.env = env
        self.cpu_id = cpu_id
        self.clock = clock if clock is not None else Clock(SWITCH_FREQ_HZ)
        self.hierarchy = (hierarchy if hierarchy is not None
                          else build_switch_hierarchy(self.clock))
        self.name = f"{name}{cpu_id}"
        self.accounting = CpuAccounting(self.name)
        #: True while a handler occupies this core.
        self.active = False

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------
    def cache_cost(self, addr: int, write: bool = False) -> int:
        """Stall ps for one local-memory reference (not data buffers —
        data-buffer reads never miss; see repro.switch.data_buffer)."""
        if write:
            return self.hierarchy.store(addr)
        return self.hierarchy.load(addr)

    def scan_cost(self, addr: int, nbytes: int, write: bool = False) -> int:
        """Stall ps for a sequential scan over local memory."""
        if write:
            return self.hierarchy.store_range(addr, nbytes)
        return self.hierarchy.load_range(addr, nbytes)

    # ------------------------------------------------------------------
    # Timed execution
    # ------------------------------------------------------------------
    def work(self, busy_cycles: float = 0, stall_ps: int = 0):
        """Run handler computation on this core."""
        return occupy(self, self.clock.cycles(busy_cycles), stall_ps)

    def send_buffer(self):
        """Cycle cost of the send-data-buffer instruction."""
        return self.work(busy_cycles=SEND_BUFFER_CYCLES)

    def release_buffer(self):
        """Cycle cost of a Deallocate_Buffer call."""
        return self.work(busy_cycles=RELEASE_BUFFER_CYCLES)

    def __repr__(self) -> str:
        return f"<SwitchCPU {self.name} @ {self.clock.freq_hz / 1e6:g} MHz>"
