"""Per-spindle oracle for the striped disk array.

The reference meaning of ``DiskArray.read_burst`` / ``write_burst``:
split the request into chunks of ``ceil(nbytes / n)`` bytes and price
each spindle's chunk as a request of its own, which recomputes its
transfer time, looks up the fault plan, and adds its busy interval to a
float running integral the way a ``BusyTracker`` did.  Each spindle
that took part ends with its head at ``(offset + nbytes) // n``, where
the next sequential request starts.  The simulator's one-pass array
must match this walk in every return value, counter, head, arm, busy
time, utilization, fault draw and trace span.  Tests drive a
:class:`ReferenceArray` beside a real array, each side with its own
fault injector (same plan and seed) and trace collector, and compare
:func:`state`.
"""

from dataclasses import asdict

from repro.io import DiskArray, DiskConfig, DiskError, DiskStats
from repro.sim.units import transfer_ps


class Spindle:
    """One arm's state, kept by hand."""

    def __init__(self, name, config, injector, trace):
        self.name = name
        self.config = config
        self.injector = injector
        self.trace = trace
        self.stats = DiskStats()
        self.busy = 0.0  # float integral of busy ps
        self.head = -1
        self.arm_free = 0

    def access(self, at_ps, offset, nbytes, head, write):
        start = max(at_ps, self.arm_free)
        stats = self.stats
        stats.requests += 1
        transfer = transfer_ps(nbytes, self.config.bandwidth_bytes_per_s)
        injector = self.injector
        faults = (injector.plan.disk if injector is not None
                  and injector.plan.disk.enabled else None)
        t = start
        data_start = None
        attempt = 0
        while True:
            if offset == self.head:
                stats.sequential_requests += 1
            else:
                positioning = (self.config.seek_ps
                               + self.config.half_rotation_ps)
                stats.positioning_ps += positioning
                t += positioning
            if data_start is None:
                data_start = t
            if faults is None or not injector.disk_error(self.name, write):
                break
            stats.transient_errors += 1
            t += transfer // 2
            self.head = -1
            if attempt >= faults.max_retries:
                self.busy += t - start
                self.arm_free = t
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
        self.head = head
        self.busy += done - start
        self.arm_free = done
        if self.trace is not None:
            self.trace.span(self.name, "disk.write" if write else "disk.read",
                            start, done - start, offset=offset, bytes=nbytes,
                            retries=attempt)
        return data_start, done

    def utilization(self, until_ps):
        return self.busy / until_ps if until_ps > 0 else 0.0


class ReferenceArray:
    """A striped array of :class:`Spindle`\\ s named like a
    :class:`~repro.io.DiskArray`'s disks, so fault streams line up."""

    def __init__(self, name="disks", num_disks=2, config=DiskConfig(),
                 injector=None, trace=None):
        self.spindles = [Spindle(f"{name}-{i}", config, injector, trace)
                         for i in range(num_disks)]

    def position_heads(self, offset):
        for spindle in self.spindles:
            spindle.head = offset // len(self.spindles)

    def _access(self, at_ps, offset, nbytes, write):
        n = len(self.spindles)
        share = -(-nbytes // n)
        remaining = nbytes
        started = done = None
        for index, spindle in enumerate(self.spindles):
            chunk = min(share, remaining)
            if chunk <= 0:
                break
            data_start, spindle_done = spindle.access(
                at_ps, offset // n, chunk, (offset + nbytes) // n, write)
            if index == 0:
                started = data_start
            if done is None or spindle_done > done:
                done = spindle_done
            remaining -= chunk
        return started, done

    def read_burst(self, at_ps, offset, nbytes):
        return self._access(at_ps, offset, nbytes, write=False)

    def write_burst(self, at_ps, offset, nbytes):
        return self._access(at_ps, offset, nbytes, write=True)


def state(array, until_ps):
    """Every spindle's counters, busy time, utilization at ``until_ps``
    (for an array built at time 0), head and arm, for either side."""
    if isinstance(array, DiskArray):
        return [(asdict(d.stats), d.busy_ps, d.utilization(until_ps),
                 d._head_position, d._arm_free_ps) for d in array.disks]
    return [(asdict(s.stats), s.busy, s.utilization(until_ps), s.head,
             s.arm_free) for s in array.spindles]
