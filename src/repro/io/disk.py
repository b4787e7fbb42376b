"""Disk model: seek time, rotation speed, peak bandwidth.

"The disk model includes three timing related parameters: seek time,
rotation speed and peak bandwidth.  For all the experiments in this
paper, we use two disks with a total peak bandwidth of 100 MB/s and we
assume a sequential access pattern because most of our applications deal
with large files."

:class:`Disk` is one spindle; :class:`DiskArray` stripes a logical
stream across several disks, giving the paper's 2 x 50 MB/s = 100 MB/s
aggregate.  Sequential requests pay positioning (seek + half-rotation)
only when the head moves away from the previous request's end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.core import Environment
from ..sim.units import SEC, ms, transfer_ps


class DiskError(Exception):
    """A request kept failing after the firmware's bounded retries."""


@dataclass(frozen=True)
class DiskConfig:
    """One spindle's timing parameters."""

    seek_ps: int = ms(5.0)
    rpm: int = 10_000
    bandwidth_bytes_per_s: float = 50e6

    def __post_init__(self):
        if self.seek_ps < 0:
            raise ValueError("seek time cannot be negative")
        if self.rpm <= 0:
            raise ValueError("rotation speed must be positive")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("disk bandwidth must be positive")

    @property
    def half_rotation_ps(self) -> int:
        """Average rotational latency: half a revolution."""
        return round(SEC * 60 / self.rpm / 2)


@dataclass
class DiskStats:
    requests: int = 0
    sequential_requests: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    positioning_ps: int = 0
    transfer_ps_total: int = 0
    #: Injected transient media errors observed by this spindle.
    transient_errors: int = 0
    #: Firmware retry attempts actually issued (≤ transient_errors; an
    #: exhausted request errors without a matching retry).
    retries: int = 0


class Disk:
    """One disk spindle with a single FIFO request queue (the arm).

    The arm is analytic state, not a simulation resource: it is free at
    ``_arm_free_ps``, so a request reaching it at ``at_ps`` starts at
    ``max(at_ps, _arm_free_ps)``.  Every issuer runs at real simulated
    time and hands requests over in nondecreasing ``at_ps`` order, which
    makes that scalar exactly a FIFO queue.
    """

    def __init__(self, env: Environment, name: str,
                 config: DiskConfig = DiskConfig()):
        self.env = env
        self.name = name
        self.config = config
        self.stats = DiskStats()
        #: Picoseconds the arm has spent on requests (retries included).
        self.busy_ps = 0
        self._built_ps = env.now
        self._positioning_ps = config.seek_ps + config.half_rotation_ps
        self._head_position = -1  # byte offset after the last transfer
        #: When the arm finishes the last request handed to it.
        self._arm_free_ps = 0
        self._injector = None
        self._faults = None  # the injector's disk plan, when enabled
        env.add_context_provider(self._failure_context)

    def _failure_context(self) -> dict:
        return {f"disk:{self.name}": (
            f"{self.stats.requests} reqs, "
            f"{self.stats.transient_errors} transient errors, "
            f"arm busy until {self._arm_free_ps} ps")}

    def attach_faults(self, injector) -> None:
        """Subject this spindle to ``injector``'s fault plan."""
        self._injector = injector
        faults = injector.plan.disk
        self._faults = faults if faults.enabled else None

    def position_head(self, offset: int) -> None:
        """Pre-position the head (models OS read-ahead having already
        seeked, or a file contiguous with prior activity)."""
        self._head_position = offset

    def utilization(self, until_ps: Optional[int] = None) -> float:
        """Busy fraction of the time from construction to ``until_ps``
        (default now)."""
        span = (self.env.now if until_ps is None else until_ps) \
            - self._built_ps
        return self.busy_ps / span if span > 0 else 0.0

    def access_burst(self, at_ps: int, offset: int, nbytes: int,
                     write: bool):
        """Schedule one request on the arm, with zero kernel events.

        ``at_ps`` is when the request reaches the arm queue.  Returns
        ``(data_start_ps, done_ps)``: when the head is first positioned
        and data begins to flow, and when the last byte moves.

        Each attempt pays positioning (seek + half a rotation) unless
        the head already sits at ``offset``.  Under a fault plan each
        attempt makes one ``disk_error`` draw, in per-spindle FIFO
        order.  An injected transient error surfaces mid-transfer
        (roughly half the data has moved before the bad sector); the
        firmware recalibrates — an exponentially backed-off delay that
        also invalidates the head position, so the retry pays
        positioning again — and replays the request, up to
        ``max_retries`` times before raising :class:`DiskError`.  The
        whole schedule is known when the request is issued, so the
        error raises then.
        """
        if nbytes <= 0:
            raise ValueError(f"request size must be positive, got {nbytes}")
        return self._access(
            at_ps, offset, nbytes, offset + nbytes, write,
            transfer_ps(nbytes, self.config.bandwidth_bytes_per_s),
            self.env.trace)

    def _access(self, at_ps: int, offset: int, nbytes: int, head: int,
                write: bool, transfer: int, trace):
        """:meth:`access_burst` given ``nbytes``' ``transfer`` time, the
        ``head`` position it ends at, and the environment's ``trace``."""
        start = at_ps if at_ps > self._arm_free_ps else self._arm_free_ps
        stats = self.stats
        stats.requests += 1
        t = start
        if offset == self._head_position:
            stats.sequential_requests += 1
        else:
            stats.positioning_ps += self._positioning_ps
            t += self._positioning_ps
        data_start = t
        faults = self._faults
        attempt = 0
        while faults is not None and \
                self._injector.disk_error(self.name, write):
            stats.transient_errors += 1
            t += transfer // 2
            if attempt >= faults.max_retries:
                self._head_position = -1
                self.busy_ps += t - start
                self._arm_free_ps = t
                raise DiskError(
                    f"{self.name}: {'write' if write else 'read'} of "
                    f"{nbytes} B at {offset} failed after "
                    f"{faults.max_retries} retries")
            stats.retries += 1
            stats.positioning_ps += self._positioning_ps
            t += faults.retry_backoff_ps * (2 ** attempt) \
                + self._positioning_ps
            attempt += 1
        stats.transfer_ps_total += transfer
        if write:
            stats.bytes_written += nbytes
        else:
            stats.bytes_read += nbytes
        done = t + transfer
        self._head_position = head
        self.busy_ps += done - start
        self._arm_free_ps = done
        if trace is not None:
            trace.span(self.name, "disk.write" if write else "disk.read",
                       start, done - start, offset=offset, bytes=nbytes,
                       retries=attempt)
        return data_start, done

    def __repr__(self) -> str:
        return f"<Disk {self.name}: {self.stats.bytes_read} B read>"


class DiskArray:
    """Several spindles striped into one logical sequential device.

    A logical read of B bytes is split evenly across the disks, which
    transfer in parallel — aggregate bandwidth is the sum of the
    spindles', i.e. the paper's 100 MB/s for two 50 MB/s disks.
    """

    def __init__(self, env: Environment, name: str = "disks",
                 num_disks: int = 2, config: DiskConfig = DiskConfig()):
        if num_disks < 1:
            raise ValueError("need at least one disk")
        self.env = env
        self.name = name
        self.config = config
        self.disks = [Disk(env, f"{name}-{i}", config) for i in range(num_disks)]

    def attach_faults(self, injector) -> None:
        """Subject every spindle to ``injector``'s fault plan."""
        for disk in self.disks:
            disk.attach_faults(injector)

    @property
    def transient_errors(self) -> int:
        return sum(d.stats.transient_errors for d in self.disks)

    @property
    def retries(self) -> int:
        return sum(d.stats.retries for d in self.disks)

    @property
    def aggregate_bandwidth(self) -> float:
        """Peak bytes/s across all spindles."""
        return self.config.bandwidth_bytes_per_s * len(self.disks)

    def position_heads(self, offset: int) -> None:
        """Pre-position every spindle (see Disk.position_head)."""
        for disk in self.disks:
            disk.position_head(offset // len(self.disks))

    @property
    def bytes_read(self) -> int:
        return sum(d.stats.bytes_read for d in self.disks)

    def _access_burst(self, at_ps: int, offset: int, nbytes: int,
                      write: bool):
        """Split one logical request evenly across the spindles, which
        transfer in parallel: each moves up to ``ceil(nbytes / n)`` bytes
        at ``offset // n`` and leaves its head at ``(offset + nbytes) //
        n``, where the next sequential request starts."""
        if nbytes <= 0:
            raise ValueError(f"{'write' if write else 'read'} size must be "
                             f"positive, got {nbytes}")
        n = len(self.disks)
        chunk = -(-nbytes // n)
        bandwidth = self.config.bandwidth_bytes_per_s
        transfer = transfer_ps(chunk, bandwidth)
        spindle_offset, head = offset // n, (offset + nbytes) // n
        trace = self.env.trace
        remaining = nbytes
        started = done = None
        for disk in self.disks:
            if remaining < chunk:
                if remaining <= 0:
                    break
                chunk = remaining
                transfer = transfer_ps(chunk, bandwidth)
            data_start, disk_done = disk._access(
                at_ps, spindle_offset, chunk, head, write, transfer, trace)
            if started is None:
                started = data_start
            if done is None or disk_done > done:
                done = disk_done
            remaining -= chunk
        return started, done

    def read_burst(self, at_ps: int, offset: int, nbytes: int):
        """Striped read scheduled at ``at_ps`` (see :meth:`Disk.access_burst`).

        Returns ``(started_ps, done_ps)``: when the first spindle's
        data begins to flow, and when the last spindle finishes.
        """
        return self._access_burst(at_ps, offset, nbytes, write=False)

    def write_burst(self, at_ps: int, offset: int, nbytes: int):
        """Striped write scheduled at ``at_ps``; returns
        ``(started_ps, done_ps)``."""
        return self._access_burst(at_ps, offset, nbytes, write=True)

    @property
    def bytes_written(self) -> int:
        return sum(d.stats.bytes_written for d in self.disks)

    def utilization(self) -> float:
        """Mean spindle busy fraction since simulation start."""
        return sum(d.utilization() for d in self.disks) / len(self.disks)

    def transfer_ps(self, nbytes: int) -> int:
        """Analytic aggregate transfer time for a sequential stream."""
        return transfer_ps(nbytes, self.aggregate_bandwidth)

    def __repr__(self) -> str:
        return (f"<DiskArray {self.name}: {len(self.disks)} disks, "
                f"{self.aggregate_bandwidth / 1e6:g} MB/s>")
