"""Tar benchmark (paper Section 5, Figures 11/12).

``tar -cf``: create an archive from a set of input files.  Partitioning:
"the host portion of active Tar is responsible for parsing the
command-line options and generating a header for each input file ...
The handler on the active switch reads in the input files and outputs
them directly to the archive ... It redirects the output tar file to a
remote node, completely bypassing the host."  Tar is the one benchmark
whose switch handler initiates disk requests itself.

The functional kernel builds real USTAR (POSIX.1-1988) headers —
verified round-trippable by the tests — and the archive layout
(512-byte header + padded content per file, two zero blocks at the
end).

Cost model: ~3000 host cycles to format one USTAR header (name/size
formatting, octal fields, checksum); in the normal case the host also
copies every data byte through memory into SAN writes (~0.5 cycles/byte
plus cache stalls); the active handler just redirects buffers
(per-block send-unit work, no per-byte CPU cost).
"""

from __future__ import annotations

from typing import List

from ..cluster.config import ClusterConfig
from ..cluster.iostream import ReadStream
from ..cluster.system import System
from ..workloads import files
from .base import SystemApp

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

TAR_BLOCK = 512
HEADER_FORMAT_CYCLES = 3000
HOST_COPY_CYCLES_PER_BYTE = 0.5
SWITCH_REDIRECT_CYCLES_PER_BLOCK = 60  # per 64 KB: status checks + sends

_INPUT_BASE = 0x2000_0000
_OUTPUT_BASE = 0x6000_0000


# ----------------------------------------------------------------------
# USTAR kernel
# ----------------------------------------------------------------------
def _octal(value: int, width: int) -> bytes:
    return f"{value:0{width - 1}o}".encode("ascii") + b"\x00"


def ustar_header(spec: files.FileSpec) -> bytes:
    """A real 512-byte USTAR header for ``spec``."""
    name = spec.name.encode("ascii")
    if len(name) > 100:
        raise ValueError(f"name too long for USTAR: {spec.name}")
    header = bytearray(TAR_BLOCK)
    header[0:len(name)] = name
    header[100:108] = _octal(spec.mode, 8)
    header[108:116] = _octal(0, 8)          # uid
    header[116:124] = _octal(0, 8)          # gid
    header[124:136] = _octal(spec.size, 12)
    header[136:148] = _octal(spec.mtime, 12)
    header[148:156] = b" " * 8              # checksum placeholder
    header[156] = ord("0")                  # regular file
    header[257:263] = b"ustar\x00"
    header[263:265] = b"00"
    checksum = sum(header)
    header[148:156] = f"{checksum:06o}".encode("ascii") + b"\x00 "
    return bytes(header)


def build_archive(specs: List[files.FileSpec]) -> bytes:
    """The full tar archive (functional oracle for small file sets)."""
    out = bytearray()
    for spec in specs:
        out += ustar_header(spec)
        content = spec.content()
        out += content
        pad = (-len(content)) % TAR_BLOCK
        out += b"\x00" * pad
    out += b"\x00" * (2 * TAR_BLOCK)
    return bytes(out)


def parse_archive(data: bytes) -> List[tuple]:
    """Parse (name, size) entries back out of an archive."""
    entries = []
    offset = 0
    while offset + TAR_BLOCK <= len(data):
        block = data[offset:offset + TAR_BLOCK]
        if block == b"\x00" * TAR_BLOCK:
            break
        name = block[0:100].rstrip(b"\x00").decode("ascii")
        size = int(block[124:135].rstrip(b"\x00 "), 8)
        entries.append((name, size))
        offset += TAR_BLOCK + size + ((-size) % TAR_BLOCK)
    return entries


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------
class TarApp(SystemApp):
    """Tar under the four configurations (custom flows).

    The cluster has two hosts: host0 runs tar, host1 holds the output
    archive ("a remote node").
    """

    name = "tar"
    request_bytes = 64 * 1024

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale
        total = max(64 * 1024, int(files.PAPER_INPUT_BYTES * scale))
        self.files = files.generate_fileset(total_bytes=total)
        self.headers = [ustar_header(spec) for spec in self.files]
        self.total_input = files.total_size(self.files)
        self.archive_bytes = (sum(TAR_BLOCK + f.size + (-f.size) % TAR_BLOCK
                                  for f in self.files) + 2 * TAR_BLOCK)

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(num_hosts=2)

    # ------------------------------------------------------------------
    def run_normal(self, system: System, depth: int):
        """Host reads every file and writes the archive to the remote."""
        host, remote = system.hosts[0], system.hosts[1]
        stream = ReadStream(system, host, total_bytes=self.total_input,
                            request_bytes=self.request_bytes, depth=depth,
                            to_switch=False, request_cost="os")
        # Header generation is interleaved with the data stream; charge
        # it against the block containing each file's start: the number
        # of headers in block b is the number of file starts below that
        # block's end offset, so one vectorised searchsorted over the
        # cumulative block ends replaces the per-file scan.
        file_starts = []
        offset = 0
        for spec in self.files:
            file_starts.append(offset)
            offset += spec.size
        block_ends = [min((b + 1) * self.request_bytes, self.total_input)
                      for b in range(stream.num_blocks)]
        if _np is not None:
            cumulative = _np.searchsorted(
                _np.asarray(file_starts, dtype=_np.int64),
                _np.asarray(block_ends, dtype=_np.int64), side="left")
            header_counts = _np.diff(cumulative, prepend=0).tolist()
        else:
            from bisect import bisect_left
            cuts = [bisect_left(file_starts, end) for end in block_ends]
            header_counts = [hi - lo
                             for lo, hi in zip([0] + cuts[:-1], cuts)]
        cursor_in = _INPUT_BASE
        cursor_out = _OUTPUT_BASE
        for block_index in range(stream.num_blocks):
            arrival = yield from stream.next_block()
            yield from stream.consume_fully(arrival)
            headers_here = header_counts[block_index]
            copy_stall = host.hierarchy.load_range(cursor_in, arrival.nbytes)
            copy_stall += host.hierarchy.store_range(cursor_out, arrival.nbytes)
            cursor_in += arrival.nbytes
            cursor_out += arrival.nbytes
            yield from host.cpu.work(
                headers_here * HEADER_FORMAT_CYCLES
                + arrival.nbytes * HOST_COPY_CYCLES_PER_BYTE,
                copy_stall)
            out_bytes = arrival.nbytes + headers_here * TAR_BLOCK
            yield from system.host_to_host_bulk(host, remote, out_bytes)
            yield from stream.done_with(arrival)

    def run_active(self, system: System, depth: int):
        """Host sends headers; the switch handler pulls the file data
        from storage and redirects it to the remote node."""
        host, remote = system.hosts[0], system.hosts[1]
        env = system.env

        def host_stage(env):
            # Parse options + generate and ship one header per file.
            for spec in self.files:
                yield from host.cpu.work(HEADER_FORMAT_CYCLES, 0)
                yield from system.host_to_host_bulk(host, remote, TAR_BLOCK)
            # One active request launches the switch-side tar handler.
            yield from host.active_request()

        def switch_stage(env):
            # The handler initiates its own disk reads — no host request
            # costs at all (request_cost="none").
            stream = ReadStream(system, host, total_bytes=self.total_input,
                                request_bytes=self.request_bytes,
                                depth=depth, to_switch=True,
                                request_cost="none")
            for _ in range(stream.num_blocks):
                arrival = yield from stream.next_block()
                yield from system.process_on_switch(
                    SWITCH_REDIRECT_CYCLES_PER_BLOCK, 0,
                    arrival_end_event=arrival.end_event,
                    arrival_end_ps=arrival.end_ps)
                yield from system.switch_to_remote_bulk(remote.name,
                                                        arrival.nbytes)
                remote.hca.account_bulk_in(arrival.nbytes)
                yield from stream.done_with(arrival)

        host_proc = env.process(host_stage(env), name="tar-host")
        switch_proc = env.process(switch_stage(env), name="tar-switch")
        yield env.all_of([host_proc, switch_proc])
