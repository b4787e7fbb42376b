"""Filter-placement comparison: host vs switch vs device vs two-level.

The paper's Related Work argues the active switch's position lets it
improve *all* traffic types while active I/O devices only help their
own, and that the two compose into "a two-level active I/O system".
This experiment runs the same filtered table scan (the Select kernel's
shape: ~25 % of records pass) with the filter at four places:

* **host** — the normal system: all data crosses the fabric and the
  host filters it;
* **switch** — the paper's system: full data on the storage link, only
  passing records on the host link;
* **device** — the active-disk alternative: only passing records ever
  enter the fabric;
* **two-level** — the device drops half the non-passing records with a
  cheap pre-filter and the switch applies the precise predicate.

All four are disk-bound (filtering is cheap), so the discriminating
metrics are *where* bytes flow and *which* processor pays.
"""

from __future__ import annotations

from typing import Dict, List

from ..cluster.config import ClusterConfig
from ..cluster.system import System
from ..io.active_storage import ActiveStorageNode
from ..workloads import records
from .registry import Experiment, Shape, quoted, register

#: Cycles per record for the range predicate on each engine.
HOST_FILTER_CYCLES = 8
SWITCH_FILTER_CYCLES = 10
DEVICE_FILTER_CYCLES = 12  # simplest core, more cycles for the same scan

#: Fraction of records passing the precise predicate.
PASS_FRACTION = 0.25
#: Fraction surviving the device's cheap pre-filter in two-level mode.
PREFILTER_PASS = 0.5

_INPUT_BASE = 0x2000_0000


def _build_system(active_switch: bool, active_device: bool):
    config = ClusterConfig(active=active_switch, prefetch_depth=2,
                           database_scaled_caches=True)
    system = System(config)
    if active_device:
        # Swap the passive storage node's internals for an active one,
        # reusing the already-wired TCA adapter name/links.
        storage = ActiveStorageNode(system.env, "storage0", config)
        storage.tca = system.storage.tca  # keep the wired adapter
        system.storage_nodes[0] = storage
    return system


def _scan(system, total_bytes: int, request_bytes: int,
          placement: str) -> None:
    """Drive one filtered scan; blocks until complete."""
    from ..cluster.iostream import ReadStream
    env = system.env
    host = system.host
    per_block_records = request_bytes // records.RECORD_BYTES
    num_blocks = -(-total_bytes // request_bytes)

    def host_filter_stall(base):
        return host.hierarchy.load_stride(base, records.RECORD_BYTES,
                                          per_block_records)

    def driver(env):
        if placement in ("device", "two-level"):
            # Filtered (or pre-filtered) reads straight from the device.
            storage = system.storage
            device_pass = (PASS_FRACTION if placement == "device"
                           else PREFILTER_PASS)
            for index in range(num_blocks):
                yield from host.active_request()
                out_bytes = int(request_bytes * device_pass)
                done = storage.serve_filtered_read_burst(
                    env.now + system.request_path_ps(),
                    index * request_bytes, request_bytes,
                    filter_cycles=per_block_records * DEVICE_FILTER_CYCLES,
                    out_bytes=out_bytes)
                yield env.timeout(done - env.now)
                if placement == "two-level":
                    # The switch applies the precise predicate to the
                    # pre-filtered stream.
                    survivors = int(request_bytes * PASS_FRACTION)
                    yield from system.process_on_switch(
                        cycles=(per_block_records * PREFILTER_PASS
                                * SWITCH_FILTER_CYCLES),
                        stall_ps=0)
                    yield from system.switch_to_host_bulk(host, survivors)
                else:
                    yield from system.switch_to_host_bulk(host, out_bytes)
            return

        to_switch = placement == "switch"
        stream = ReadStream(
            system, host, total_bytes=total_bytes,
            request_bytes=request_bytes, depth=2, to_switch=to_switch,
            request_cost="active" if to_switch else "os")
        cursor = _INPUT_BASE
        for index in range(num_blocks):
            arrival = yield from stream.next_block()
            if to_switch:
                yield from system.process_on_switch(
                    cycles=per_block_records * SWITCH_FILTER_CYCLES,
                    stall_ps=0, arrival_end_ps=arrival.end_ps)
                yield from system.switch_to_host_bulk(
                    host, int(arrival.nbytes * PASS_FRACTION))
            else:
                yield from stream.consume_fully(arrival)
                stall = host_filter_stall(cursor)
                cursor += arrival.nbytes
                yield from host.cpu.work(
                    per_block_records * HOST_FILTER_CYCLES, stall)
            yield from stream.done_with(arrival)

    proc = env.process(driver(env), name=f"scan-{placement}")
    env.run(until=proc)


def compare_filter_placement(scale: float = 1 / 64) -> List[Dict]:
    """Run the scan with the filter at each placement; returns rows."""
    total = int(128 * 1024 * 1024 * scale)
    request = 64 * 1024
    total -= total % request
    total = max(total, 4 * request)

    # Its own driver: active storage devices are no app case.
    rows = []
    for placement in ("host", "switch", "device", "two-level"):
        system = _build_system(
            active_switch=placement in ("switch", "two-level"),
            active_device=placement in ("device", "two-level"))
        _scan(system, total, request, placement)
        env_now = system.env.now
        to_switch_link, _ = system.links_for("storage0")
        storage = system.storage
        fabric_bytes = storage.tca.traffic.bytes_out
        rows.append({
            "placement": placement,
            "exec_ms": env_now / 1e9,
            "host_in_bytes": system.host.hca.traffic.bytes_in,
            "fabric_bytes": fabric_bytes,
            "host_busy_frac": system.host.cpu.accounting.busy_ps / env_now,
        })
    return rows


def _by_placement(rows, placement: str, key: str):
    return {row["placement"]: row for row in rows}[placement][key]


def _measured(rows) -> Dict[str, float]:
    by_placement = {row["placement"]: row for row in rows}
    host = by_placement["host"]
    return {
        "device fabric fraction": (by_placement["device"]["fabric_bytes"]
                                   / host["fabric_bytes"]),
        "switch fabric fraction": (by_placement["switch"]["fabric_bytes"]
                                   / host["fabric_bytes"]),
        "two-level fabric fraction": (
            by_placement["two-level"]["fabric_bytes"]
            / host["fabric_bytes"]),
        "all disk-bound spread": (max(r["exec_ms"] for r in rows)
                                  / min(r["exec_ms"] for r in rows)),
    }


register(Experiment(
    experiment_id="ext_two_level",
    title="Extension: filter placement (host / switch / device / two-level)",
    paper={
        # The paper's qualitative claims, quantified:
        "device fabric fraction": 0.25,   # only survivors enter the SAN
        "switch fabric fraction": 1.00,   # full data reaches the switch
    },
    run=lambda scale=1 / 64: compare_filter_placement(scale),
    measured=_measured,
    default_scale=1 / 64,
    notes=("Not a paper figure: quantifies the Related-Work trade-off "
           "between active switches and active disks, and their "
           "two-level composition."),
    tolerance={
        "device fabric fraction": quoted("0.25", "Select's selectivity"),
        "switch fabric fraction": quoted("1.00", "unfiltered storage link"),
    },
    shape=(
        Shape("every placement is disk-bound",
              lambda rows: _measured(rows)["all disk-bound spread"],
              "<", 1.10),
        Shape("device ships a quarter of the fabric bytes",
              lambda rows: _by_placement(rows, "device", "fabric_bytes")
              - _by_placement(rows, "host", "fabric_bytes") // 4, "==", 0),
        Shape("switch delivers a quarter of the host bytes",
              lambda rows: _by_placement(rows, "switch", "host_in_bytes")
              - _by_placement(rows, "host", "host_in_bytes") // 4, "==", 0),
    ),
))
