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
        self._stats = DiskStats()
        self._busy_ps = 0
        self._built_ps = env.now
        self._positioning_ps = config.seek_ps + config.half_rotation_ps
        self._head_position = -1  # byte offset after the last transfer
        #: When the arm finishes the last request handed to it.
        self._arm_free_ps = 0
        self._injector = None
        self._faults = None  # the injector's disk plan, when enabled
        #: The array this spindle belongs to, which may hold its
        #: counters, arm and head while its spindles move in lockstep.
        self._array: Optional[DiskArray] = None
        env.add_context_provider(self._failure_context)

    @property
    def stats(self) -> DiskStats:
        """This spindle's counters."""
        if self._array is not None:
            self._array._settle()
        return self._stats

    @property
    def busy_ps(self) -> int:
        """Picoseconds the arm has spent on requests (retries included)."""
        if self._array is not None:
            self._array._settle()
        return self._busy_ps

    def _failure_context(self) -> dict:
        stats = self.stats
        return {f"disk:{self.name}": (
            f"{stats.requests} reqs, "
            f"{stats.transient_errors} transient errors, "
            f"arm busy until {self._arm_free_ps} ps")}

    def _detach(self) -> None:
        """Take this spindle's array out of lockstep before the spindle
        is driven on its own."""
        if self._array is not None:
            self._array._leave_lockstep()

    def attach_faults(self, injector) -> None:
        """Subject this spindle to ``injector``'s fault plan."""
        self._detach()
        self._injector = injector
        faults = injector.plan.disk
        self._faults = faults if faults.enabled else None

    def position_head(self, offset: int) -> None:
        """Pre-position the head (models OS read-ahead having already
        seeked, or a file contiguous with prior activity)."""
        self._detach()
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
        self._detach()
        return self._access(
            at_ps, offset, nbytes, offset + nbytes, write,
            transfer_ps(nbytes, self.config.bandwidth_bytes_per_s),
            self.env.trace)

    def _access(self, at_ps: int, offset: int, nbytes: int, head: int,
                write: bool, transfer: int, trace):
        """:meth:`access_burst` given ``nbytes``' ``transfer`` time, the
        ``head`` position it ends at, and the environment's ``trace``."""
        start = at_ps if at_ps > self._arm_free_ps else self._arm_free_ps
        stats = self._stats
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
                self._busy_ps += t - start
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
        self._busy_ps += done - start
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

    While the spindles move in lockstep — no spindle has a disk fault
    plan, every arm is free at the same time and every head sits at the
    same offset — the array keeps that one arm-free time and head for
    all of them.  A request that splits evenly (``nbytes % n == 0``) is
    then priced once, and the per-spindle counters it adds wait on the
    array.  Anything that reads a spindle (its ``stats``, ``busy_ps``,
    ``utilization()``, failure context) first settles them into every
    :class:`Disk`; driving a spindle on its own (its ``access_burst``,
    ``position_head`` or ``attach_faults``) also takes the array out of
    lockstep.  Out of lockstep, or for an uneven split, each spindle is
    stepped in turn; the array goes back into lockstep once its spindles
    agree again.  Both ways record the same trace spans.
    """

    def __init__(self, env: Environment, name: str = "disks",
                 num_disks: int = 2, config: DiskConfig = DiskConfig()):
        if num_disks < 1:
            raise ValueError("need at least one disk")
        self.env = env
        self.name = name
        self.config = config
        self.disks = [Disk(env, f"{name}-{i}", config) for i in range(num_disks)]
        for disk in self.disks:
            disk._array = self
        self._positioning_ps = config.seek_ps + config.half_rotation_ps
        # Lockstep state: every spindle's arm and head, and the counters
        # each spindle has gained since the last settle.
        self._lockstep = True
        self._arm_free_ps = 0
        self._head_position = -1
        self._pending = DiskStats()
        self._pending_busy_ps = 0

    def _settle(self) -> None:
        """Add the pending lockstep counters to every spindle, and give
        each the array's arm and head."""
        pending = self._pending
        if not pending.requests:
            return
        busy = self._pending_busy_ps
        for disk in self.disks:
            stats = disk._stats
            stats.requests += pending.requests
            stats.sequential_requests += pending.sequential_requests
            stats.bytes_read += pending.bytes_read
            stats.bytes_written += pending.bytes_written
            stats.positioning_ps += pending.positioning_ps
            stats.transfer_ps_total += pending.transfer_ps_total
            disk._busy_ps += busy
            disk._arm_free_ps = self._arm_free_ps
            disk._head_position = self._head_position
        # Reset in place: a settle runs on reads from any layer, and
        # building a DiskStats there would count as an io call.
        pending.requests = pending.sequential_requests = 0
        pending.bytes_read = pending.bytes_written = 0
        pending.positioning_ps = pending.transfer_ps_total = 0
        self._pending_busy_ps = 0

    def _leave_lockstep(self) -> None:
        self._settle()
        self._lockstep = False

    def _rejoin(self) -> None:
        """Go back into lockstep if the spindles agree."""
        first = self.disks[0]
        arm, head = first._arm_free_ps, first._head_position
        if all(d._faults is None and d._arm_free_ps == arm
               and d._head_position == head for d in self.disks):
            self._arm_free_ps, self._head_position = arm, head
            self._lockstep = True

    def attach_faults(self, injector) -> None:
        """Subject every spindle to ``injector``'s fault plan."""
        for disk in self.disks:
            disk.attach_faults(injector)
        self._rejoin()

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
        head = self._head_position = offset // len(self.disks)
        for disk in self.disks:
            disk._head_position = head
        if not self._lockstep:
            self._rejoin()

    @property
    def bytes_read(self) -> int:
        return sum(d.stats.bytes_read for d in self.disks)

    def _access_burst(self, at_ps: int, offset: int, nbytes: int,
                      write: bool):
        """Split one logical request evenly across the spindles, which
        transfer in parallel: each moves up to ``ceil(nbytes / n)`` bytes
        at ``offset // n`` and leaves its head at ``(offset + nbytes) //
        n``, where the next sequential request starts.  In lockstep an
        even split is priced once for every spindle."""
        if nbytes <= 0:
            raise ValueError(f"{'write' if write else 'read'} size must be "
                             f"positive, got {nbytes}")
        n = len(self.disks)
        if not self._lockstep or nbytes % n:
            return self._walk(at_ps, offset, nbytes, write)
        chunk = nbytes // n
        transfer = transfer_ps(chunk, self.config.bandwidth_bytes_per_s)
        spindle_offset = offset // n
        start = at_ps if at_ps > self._arm_free_ps else self._arm_free_ps
        pending = self._pending
        pending.requests += 1
        if spindle_offset == self._head_position:
            pending.sequential_requests += 1
            data_start = start
        else:
            pending.positioning_ps += self._positioning_ps
            data_start = start + self._positioning_ps
        pending.transfer_ps_total += transfer
        if write:
            pending.bytes_written += chunk
        else:
            pending.bytes_read += chunk
        done = data_start + transfer
        self._head_position = (offset + nbytes) // n
        self._pending_busy_ps += done - start
        self._arm_free_ps = done
        trace = self.env.trace
        if trace is not None:
            name = "disk.write" if write else "disk.read"
            for disk in self.disks:
                trace.span(disk.name, name, start, done - start,
                           offset=spindle_offset, bytes=chunk, retries=0)
        return data_start, done

    def _walk(self, at_ps: int, offset: int, nbytes: int, write: bool):
        """:meth:`_access_burst` one spindle at a time: the path for
        fault plans, uneven splits and spindles that disagree."""
        self._leave_lockstep()
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
        self._rejoin()
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
