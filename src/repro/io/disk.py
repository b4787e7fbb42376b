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

from ..metrics.sampling import BusyTracker
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


def replay(env: Environment, started_ps: int, done_ps: int, started=None):
    """Sleep through an analytic ``(started_ps, done_ps)`` schedule.

    The event-driven face of the analytic storage pipeline: ``started``,
    if given, fires when data begins to flow; the generator completes
    when the last byte has moved.
    """
    if started is not None:
        if started_ps > env.now:
            yield env.timeout(started_ps - env.now)
        started.succeed()
    if done_ps > env.now:
        yield env.timeout(done_ps - env.now)


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
        self.busy = BusyTracker(env)
        self._head_position = -1  # byte offset after the last transfer
        #: When the arm finishes the last request handed to it.
        self._arm_free_ps = 0
        self._injector = None
        env.add_context_provider(self._failure_context)

    def _failure_context(self) -> dict:
        return {f"disk:{self.name}": (
            f"{self.stats.requests} reqs, "
            f"{self.stats.transient_errors} transient errors, "
            f"arm busy until {self._arm_free_ps} ps")}

    def attach_faults(self, injector) -> None:
        """Subject this spindle to ``injector``'s fault plan."""
        self._injector = injector

    def position_head(self, offset: int) -> None:
        """Pre-position the head (models OS read-ahead having already
        seeked, or a file contiguous with prior activity)."""
        self._head_position = offset

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
        start = at_ps if at_ps > self._arm_free_ps else self._arm_free_ps
        stats = self.stats
        stats.requests += 1
        transfer = transfer_ps(nbytes, self.config.bandwidth_bytes_per_s)
        injector = self._injector
        faults = (injector.plan.disk if injector is not None
                  and injector.plan.disk.enabled else None)
        t = start
        data_start = None
        attempt = 0
        while True:
            if offset == self._head_position:
                stats.sequential_requests += 1
            else:
                positioning = self.config.seek_ps + self.config.half_rotation_ps
                stats.positioning_ps += positioning
                t += positioning
            if data_start is None:
                data_start = t
            if faults is None or not injector.disk_error(self.name, write):
                break
            stats.transient_errors += 1
            t += transfer // 2
            self._head_position = -1
            if attempt >= faults.max_retries:
                self.busy.credit(t - start)
                self._arm_free_ps = t
                raise DiskError(
                    f"{self.name}: {'write' if write else 'read'} of "
                    f"{nbytes} B at {offset} failed after "
                    f"{faults.max_retries} retries")
            stats.retries += 1
            t += faults.retry_backoff_ps * (2 ** attempt)
            attempt += 1
        stats.transfer_ps_total += transfer
        if write:
            stats.bytes_written += nbytes
        else:
            stats.bytes_read += nbytes
        done = t + transfer
        self._head_position = offset + nbytes
        self.busy.credit(done - start)
        self._arm_free_ps = done
        trace = self.env.trace
        if trace is not None:
            trace.span(self.name, "disk.write" if write else "disk.read",
                       start, done - start, offset=offset, bytes=nbytes,
                       retries=attempt)
        return data_start, done

    def read(self, offset: int, nbytes: int, started=None):
        """Read ``nbytes`` at ``offset``; generator completes when the
        last byte leaves the platter.

        ``started``, if given, is an event triggered once the head is in
        position and data begins to flow — the moment a cut-through
        stream's first bytes leave for the fabric.
        """
        if nbytes <= 0:
            raise ValueError(f"read size must be positive, got {nbytes}")
        started_ps, done_ps = self.access_burst(self.env.now, offset, nbytes,
                                                write=False)
        yield from replay(self.env, started_ps, done_ps, started)

    def write(self, offset: int, nbytes: int, started=None):
        """Write ``nbytes`` at ``offset``; same mechanics as read (the
        paper's disk model is symmetric: position, then stream)."""
        if nbytes <= 0:
            raise ValueError(f"write size must be positive, got {nbytes}")
        started_ps, done_ps = self.access_burst(self.env.now, offset, nbytes,
                                                write=True)
        yield from replay(self.env, started_ps, done_ps, started)

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

    def read(self, offset: int, nbytes: int, started=None):
        """Striped read; completes when every spindle's share is done.

        ``started`` fires when the first spindle begins transferring.
        """
        started_ps, done_ps = self.read_burst(self.env.now, offset, nbytes)
        yield from replay(self.env, started_ps, done_ps, started)

    def _access_burst(self, at_ps: int, offset: int, nbytes: int,
                      write: bool):
        """Split one logical request evenly across the spindles, which
        transfer in parallel."""
        share = -(-nbytes // len(self.disks))
        remaining = nbytes
        started = done = None
        for index, disk in enumerate(self.disks):
            chunk = min(share, remaining)
            if chunk <= 0:
                break
            data_start, disk_done = disk.access_burst(
                at_ps, offset // len(self.disks), chunk, write)
            if index == 0:
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
        if nbytes <= 0:
            raise ValueError(f"read size must be positive, got {nbytes}")
        return self._access_burst(at_ps, offset, nbytes, write=False)

    def write_burst(self, at_ps: int, offset: int, nbytes: int):
        """Striped write scheduled at ``at_ps``; returns
        ``(started_ps, done_ps)``."""
        if nbytes <= 0:
            raise ValueError(f"write size must be positive, got {nbytes}")
        return self._access_burst(at_ps, offset, nbytes, write=True)

    def write(self, offset: int, nbytes: int, started=None):
        """Striped write; completes when every spindle's share is done."""
        started_ps, done_ps = self.write_burst(self.env.now, offset, nbytes)
        yield from replay(self.env, started_ps, done_ps, started)

    @property
    def bytes_written(self) -> int:
        return sum(d.stats.bytes_written for d in self.disks)

    def utilization(self) -> float:
        """Mean spindle busy fraction since simulation start."""
        if not self.disks:
            return 0.0
        return sum(d.busy.utilization() for d in self.disks) / len(self.disks)

    def transfer_ps(self, nbytes: int) -> int:
        """Analytic aggregate transfer time for a sequential stream."""
        return transfer_ps(nbytes, self.aggregate_bandwidth)

    def __repr__(self) -> str:
        return (f"<DiskArray {self.name}: {len(self.disks)} disks, "
                f"{self.aggregate_bandwidth / 1e6:g} MB/s>")
