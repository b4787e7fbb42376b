"""Execution-time accounting for the paper's breakdown figures.

Every breakdown figure in the paper splits execution time into **CPU
busy**, **cache stall**, and **idle** for each processor ("n-HP",
"a+p-SP", ...).  :class:`CpuAccounting` accumulates busy and stall time;
idle is whatever remains of the wall-clock execution time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Breakdown:
    """A finalized execution-time breakdown, in picoseconds."""

    label: str
    exec_ps: int
    busy_ps: int
    stall_ps: int

    @property
    def idle_ps(self) -> int:
        return max(0, self.exec_ps - self.busy_ps - self.stall_ps)

    @property
    def busy_frac(self) -> float:
        return self.busy_ps / self.exec_ps if self.exec_ps else 0.0

    @property
    def stall_frac(self) -> float:
        return self.stall_ps / self.exec_ps if self.exec_ps else 0.0

    @property
    def idle_frac(self) -> float:
        return self.idle_ps / self.exec_ps if self.exec_ps else 0.0

    @property
    def utilization(self) -> float:
        """The paper's host utilization metric: (1 - idle/exec)."""
        return 1.0 - self.idle_frac if self.exec_ps else 0.0

    def __str__(self) -> str:
        return (f"{self.label}: busy {self.busy_frac:6.1%}  "
                f"stall {self.stall_frac:6.1%}  idle {self.idle_frac:6.1%}")


class CpuAccounting:
    """Accumulates busy and stall time for one processor."""

    def __init__(self, label: str):
        self.label = label
        self.busy_ps = 0
        self.stall_ps = 0

    def add_busy(self, duration_ps: int) -> None:
        if duration_ps < 0:
            raise ValueError(f"negative busy time {duration_ps}")
        self.busy_ps += duration_ps

    def add_stall(self, duration_ps: int) -> None:
        if duration_ps < 0:
            raise ValueError(f"negative stall time {duration_ps}")
        self.stall_ps += duration_ps

    def finalize(self, exec_ps: int) -> Breakdown:
        """Produce a breakdown against total execution time ``exec_ps``."""
        return Breakdown(self.label, exec_ps, self.busy_ps, self.stall_ps)

    def reset(self) -> None:
        self.busy_ps = 0
        self.stall_ps = 0

    def __repr__(self) -> str:
        return f"<CpuAccounting {self.label}: busy={self.busy_ps} stall={self.stall_ps}>"


def charge(cpu, start_ps: int, busy_ps: int, stall_ps: int = 0) -> int:
    """Account ``busy_ps`` + ``stall_ps`` on ``cpu`` starting at
    ``start_ps``; returns when the charge ends.

    The one place a CPU charge is accounted and traced: :func:`occupy`
    sleeps through it at ``env.now``, and the analytic transport prices
    charges at future instants without a kernel event.  A non-zero
    charge emits one ``cpu.work`` span when a trace collector is
    attached.
    """
    acct = cpu.accounting
    acct.add_busy(busy_ps)
    if stall_ps:
        acct.add_stall(stall_ps)
    total = busy_ps + stall_ps
    if total > 0:
        trace = cpu.env.trace
        if trace is not None:
            trace.span(cpu.name, "cpu.work", start_ps, total,
                       busy_ps=busy_ps, stall_ps=stall_ps)
    return start_ps + total


def occupy(cpu, busy_ps: int, stall_ps: int = 0):
    """Process-able generator: :func:`charge` ``cpu`` from now and
    sleep until the charge ends."""
    now = cpu.env.now
    end = charge(cpu, now, busy_ps, stall_ps)
    if end > now:
        yield cpu.env.timeout(end - now)
