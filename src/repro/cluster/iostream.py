"""Sequential read streams with bounded outstanding requests.

The paper's four configurations differ in how disk requests overlap with
processing:

* *normal* / *active*: synchronous — the next request is issued only
  after the previous block has been fully consumed;
* *normal+pref* / *active+pref*: "two outstanding I/O requests" — one
  block can be in flight while the previous one is processed.

:class:`ReadStream` implements both with a token protocol: the producer
needs a token to issue a request, and the consumer returns the token
when it finishes a block.  ``depth=1`` gives the synchronous case,
``depth=2`` the prefetching case.

Each delivered :class:`BlockArrival` fires in two stages, matching
cut-through streaming: ``next_block()`` returns when the block's *first*
data reaches the destination (so an active-switch handler can start
immediately — "the Grep handler can start searching as soon as the
first data enters the switch"), and ``end_event`` fires when the last
byte lands (a normal host "has to wait for the entire 32 KB chunk").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..sim.events import Event
from ..sim.resources import Container, Store
from .node import ComputeNode
from .system import System


@dataclass
class BlockArrival:
    """One block of a sequential read stream arriving at its destination."""

    index: int
    offset: int
    nbytes: int
    #: Simulation time the first bytes reached the destination.
    start_ps: int = 0
    #: Fires when the last byte has arrived.
    end_event: Optional[Event] = None
    #: Simulation time the last byte arrives, known when the block is
    #: issued (``end_event`` fires then).
    end_ps: Optional[int] = None
    #: Functional payload attached by the workload (records, text...).
    payload: Any = None


class ReadStream:
    """A host-initiated sequential read stream of fixed-size requests."""

    def __init__(
        self,
        system: System,
        host: ComputeNode,
        total_bytes: int,
        request_bytes: int,
        depth: int = 1,
        to_switch: bool = False,
        payloads: Optional[list] = None,
        request_cost: str = "os",
        storage_index: int = 0,
        base_offset: int = 0,
        warm_start: bool = False,
    ):
        if total_bytes <= 0 or request_bytes <= 0:
            raise ValueError("stream and request sizes must be positive")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if request_cost not in ("os", "active", "none"):
            raise ValueError(f"unknown request cost model {request_cost!r}")
        self.system = system
        self.env = system.env
        self.host = host
        self.total_bytes = total_bytes
        self.request_bytes = request_bytes
        self.to_switch = to_switch
        self.payloads = payloads
        self.request_cost = request_cost
        self.storage = system.storage_nodes[storage_index]
        self.base_offset = base_offset
        if warm_start:
            # The OS's sequential read-ahead (or a file contiguous with
            # prior activity) has already positioned the heads.
            self.storage.disks.position_heads(base_offset)
        self.num_blocks = -(-total_bytes // request_bytes)
        # Pure functions of the static configuration, identical for
        # every block — hoisted out of the produce loop.
        self._request_path_ps = system.request_path_ps()
        self._first_tail_ps = system.first_data_tail_ps(to_switch)
        self._last_tail_ps = system.last_data_tail_ps(to_switch)
        label = f"read-stream:{host.name}->" \
                f"{'switch' if to_switch else host.name}"
        self._tokens = Container(self.env, capacity=depth, init=depth,
                                 name=f"{label}.tokens")
        self._arrivals: Store = Store(self.env, name=f"{label}.arrivals")
        self._issued = 0
        self._delivered = 0
        self._label = label
        self.env.add_context_provider(self._failure_context)
        self._producer = self.env.process(self._produce(), name=label)

    def _failure_context(self) -> dict:
        """Live progress snapshot for deadlock/watchdog reports: shows
        *where* a wedged benchmark run stopped making progress."""
        return {self._label: (
            f"{self._issued}/{self.num_blocks} blocks issued, "
            f"{self._delivered} delivered, "
            f"{self._tokens.level}/{self._tokens.capacity} tokens free")}

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def _block_size(self, index: int) -> int:
        if index == self.num_blocks - 1:
            return self.total_bytes - index * self.request_bytes
        return self.request_bytes

    def _charge_request(self, nbytes: int):
        if self.request_cost == "os":
            yield from self.host.os_request(nbytes)
        elif self.request_cost == "active":
            yield from self.host.active_request()

    def _produce(self):
        """One event per pipeline stage, not per component.

        The storage node's ``serve_read_burst`` prices the request's
        TCA/SCSI/disk pipeline analytically (disk retries included), so
        each block costs its request charge, one arrival timeout and one
        completion wake-up.

        Completions go through a single per-stream finisher process
        (:meth:`_finish`) instead of a producer-created timeout:
        symmetric streams finish same-sized blocks at the *same*
        picosecond, and consumers must wake in the storage pipeline's
        completion order, which a timeout scheduled at issue time would
        not reproduce (issue order differs from completion order once
        the token return is gated by contended downstream links).  The
        finisher schedules each completion timeout at the previous
        completion, which keeps tied-picosecond wake order stable.
        """
        self._finish_backlog = []
        self._finish_wake = None
        self.env.process(self._finish(), name=f"{self._label}.finish")
        for index in range(self.num_blocks):
            yield self._tokens.get(1)
            self._issued += 1
            nbytes = self._block_size(index)
            trace = self.env.trace
            if trace is not None:
                trace.instant(self._label, "stream.issue", self.env.now,
                              index=index, bytes=nbytes)
            yield from self._charge_request(nbytes)
            offset = self.base_offset + index * self.request_bytes
            started_ps, done_ps = self.storage.serve_read_burst(
                self.env.now + self._request_path_ps, offset, nbytes)
            if not self.to_switch:
                self.host.hca.account_bulk_in(nbytes)
            end_ps = done_ps + self._last_tail_ps
            end_event = self.env.event()
            self._finish_backlog.append((done_ps, end_ps, end_event, nbytes))
            if self._finish_wake is not None:
                wake, self._finish_wake = self._finish_wake, None
                wake.succeed()
            yield self.env.timeout(
                started_ps + self._first_tail_ps - self.env.now)
            arrival = BlockArrival(
                index=index,
                offset=offset,
                nbytes=nbytes,
                start_ps=self.env.now,
                end_event=end_event,
                end_ps=end_ps,
                payload=(self.payloads[index]
                         if self.payloads is not None else None),
            )
            if trace is not None:
                trace.instant(self._label, "stream.arrival", self.env.now,
                              index=index, bytes=nbytes)
            yield self._arrivals.put(arrival)
            self._delivered += 1

    def _finish(self):
        """Succeeds each block's ``end_event`` at its completion time:
        sleep to the block's disk-done instant, then the data tail,
        then fire."""
        for _ in range(self.num_blocks):
            if not self._finish_backlog:
                self._finish_wake = self.env.event()
                yield self._finish_wake
            done_ps, end_ps, end_event, nbytes = self._finish_backlog.pop(0)
            if done_ps > self.env.now:
                yield self.env.timeout(done_ps - self.env.now)
            if end_ps > self.env.now:
                yield self.env.timeout(end_ps - self.env.now)
            trace = self.env.trace
            if trace is not None:
                trace.instant(self._label, "stream.complete", self.env.now,
                              bytes=nbytes)
            end_event.succeed()

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def next_block(self):
        """Wait for the next block's first data; returns BlockArrival."""
        arrival = yield self._arrivals.get()
        return arrival

    def done_with(self, arrival: BlockArrival):
        """Return the request token, letting the producer issue another."""
        yield self._tokens.put(1)

    def consume_fully(self, arrival: BlockArrival):
        """Wait until the whole block has arrived (normal-host pattern)."""
        if not arrival.end_event.processed:
            yield arrival.end_event


class WriteStream:
    """A host-initiated sequential write stream with bounded outstanding
    requests — the mirror image of :class:`ReadStream`.

    The consumer pushes blocks with :meth:`write_block` (which blocks
    while ``depth`` writes are already in flight) and finishes with
    :meth:`drain`.  Data flows host -> switch -> TCA -> SCSI -> disks;
    the disks are the bottleneck, so a write's latency is dominated by
    :meth:`StorageNode.serve_write`.
    """

    def __init__(
        self,
        system: System,
        host: ComputeNode,
        request_bytes: int,
        depth: int = 1,
        request_cost: str = "os",
        storage_index: int = 0,
        base_offset: int = 0,
        from_switch: bool = False,
    ):
        if request_bytes <= 0:
            raise ValueError("request size must be positive")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if request_cost not in ("os", "active", "none"):
            raise ValueError(f"unknown request cost model {request_cost!r}")
        self.system = system
        self.env = system.env
        self.host = host
        self.request_bytes = request_bytes
        self.request_cost = request_cost
        self.storage = system.storage_nodes[storage_index]
        self.from_switch = from_switch
        self._offset = base_offset
        # Static per-request control latency, hoisted like ReadStream's.
        self._request_path_ps = system.request_path_ps()
        label = f"write-stream:{host.name}"
        self._tokens = Container(self.env, capacity=depth, init=depth,
                                 name=f"{label}.tokens")
        self._inflight = []
        self.bytes_written = 0
        self._label = label
        self.env.add_context_provider(self._failure_context)

    def _failure_context(self) -> dict:
        return {self._label: (
            f"{self.bytes_written} B committed, "
            f"{len(self._inflight)} writes submitted, "
            f"{self._tokens.level}/{self._tokens.capacity} tokens free")}

    def _charge_request(self, nbytes: int):
        if self.request_cost == "os":
            yield from self.host.os_request(nbytes)
        elif self.request_cost == "active":
            yield from self.host.active_request()

    def write_block(self, nbytes: Optional[int] = None):
        """Submit one block; returns once it is admitted to the window."""
        nbytes = self.request_bytes if nbytes is None else nbytes
        if nbytes <= 0:
            raise ValueError(f"block size must be positive, got {nbytes}")
        yield self._tokens.get(1)
        yield from self._charge_request(nbytes)
        offset = self._offset
        self._offset += nbytes
        self._inflight.append(self.env.process(
            self._commit(offset, nbytes), name=f"write-{offset}"))

    def _commit(self, offset: int, nbytes: int):
        done_ps = self.storage.serve_write_burst(
            self.env.now + self._request_path_ps, offset, nbytes)
        if not self.from_switch:
            self.host.hca.account_bulk_out(nbytes)
        yield self.env.timeout(done_ps - self.env.now)
        self.bytes_written += nbytes
        yield self._tokens.put(1)

    def drain(self):
        """Wait for every submitted write to be committed."""
        if self._inflight:
            yield self.env.all_of(self._inflight)
