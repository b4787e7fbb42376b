"""Named cluster-configuration presets.

``paper_2003`` is the baseline every experiment uses; the others scale
individual technologies to support sensitivity studies:

* ``fast_fabric`` — 10x links and crossbar (10 GB/s-class SAN);
* ``fast_storage`` — 8x disks (early-NVMe-class 800 MB/s streams);
* ``fast_switch_cpu`` — embedded core at host parity (2 GHz);
* ``balanced_2006`` — a plausible three-years-later system: 2x disks,
  2x links, 1 GHz switch core;
* ``chaos_2003`` — the paper testbed on an imperfect fabric: lossy
  links, transient disk errors, occasionally crashing handlers.  Pass a
  ``seed`` to pick (and exactly reproduce) one fault schedule.

Presets return fresh :class:`ClusterConfig` values; override fields
with :func:`dataclasses.replace` as usual.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict

from ..faults.plan import (DiskFaults, FailStopFaults, FaultPlan,
                           HandlerFaults, LinkFaults, ScsiFaults)
from ..io.disk import DiskConfig
from ..net.link import LinkConfig
from ..sim.units import us
from ..switch.active import ActiveSwitchConfig
from .config import ClusterConfig


def paper_2003(**overrides) -> ClusterConfig:
    """The paper's Section 4 testbed (the library default)."""
    return replace(ClusterConfig(), **overrides) if overrides else ClusterConfig()


def fast_fabric(**overrides) -> ClusterConfig:
    """10 GB/s links and crossbar; everything else per the paper."""
    base = ClusterConfig(
        link=LinkConfig(bandwidth_bytes_per_s=10e9),
        active_switch=ActiveSwitchConfig(
            crossbar_bandwidth_bytes_per_s=10e9),
    )
    return replace(base, **overrides) if overrides else base


def fast_storage(**overrides) -> ClusterConfig:
    """8x disk bandwidth (2 x 400 MB/s spindles)."""
    base = ClusterConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=400e6))
    return replace(base, **overrides) if overrides else base


def fast_switch_cpu(**overrides) -> ClusterConfig:
    """Embedded switch core at host clock parity (2 GHz)."""
    base = ClusterConfig(
        active_switch=ActiveSwitchConfig(cpu_freq_hz=2e9))
    return replace(base, **overrides) if overrides else base


def balanced_2006(**overrides) -> ClusterConfig:
    """A plausible 2006 refresh: 2x disks and links, 1 GHz switch core."""
    base = ClusterConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=100e6),
        link=LinkConfig(bandwidth_bytes_per_s=2e9),
        active_switch=ActiveSwitchConfig(
            cpu_freq_hz=1e9, crossbar_bandwidth_bytes_per_s=2e9),
    )
    return replace(base, **overrides) if overrides else base


def service_2003(**overrides) -> ClusterConfig:
    """The paper testbed provisioned for open-loop serving.

    A 16-spindle stripe (800 MB/s aggregate) moves the storage ceiling
    well past the host's request-processing rate, so offered-load
    sweeps (``repro.serve`` / ``ext_service_slo``) expose the *CPU*
    saturation knee — the axis where handler offload pays — instead of
    knee-ing on the paper's two-disk array first.
    """
    base = ClusterConfig(num_disks=16)
    return replace(base, **overrides) if overrides else base


def chaos_2003(seed: int = 0, **overrides) -> ClusterConfig:
    """The paper testbed under a deterministic storm of faults.

    The plan sets per-packet link loss and bit errors, transient disk
    read/write errors, SCSI parity errors, and a low handler crash rate
    — every schedule a pure function of ``seed``.  The recovery
    machinery (retransmission, retries, quarantine + cut-through
    fallback) keeps results correct; the run report shows what it cost.

    Which of them fire depends on the traffic.  Link and handler faults
    act on packets, so they hit reductions and fabric collectives, not
    the block path that the stream apps and ``serve()`` use: there a
    chaos run injects disk errors only.  SCSI parity faults never fire
    in any pipeline: storage nodes charge the bus's
    ``transaction_overhead_ps`` directly instead of calling
    ``ScsiBus.transaction``, so ``scsi_parity_errors`` is always 0.
    """
    base = ClusterConfig(
        seed=seed,
        faults=FaultPlan(
            link=LinkFaults(drop_rate=0.01, bit_error_rate=0.005),
            disk=DiskFaults(read_error_rate=0.02, write_error_rate=0.01),
            scsi=ScsiFaults(error_rate=0.005),
            handler=HandlerFaults(crash_rate=0.002),
        ),
    )
    return replace(base, **overrides) if overrides else base


def failstop_2003(seed: int = 0, kills: int = 1, **overrides) -> ClusterConfig:
    """The paper testbed with fail-stop component deaths.

    ``kills`` random top-level (spine/root) switches die at seeded
    times mid-run; links use a light transient loss rate on top, so
    both recovery tiers (retransmission and failover/repair) engage.
    Collectives detect the deaths via ACK escalation and heartbeats,
    re-root around them, and still produce bit-exact results — the run
    report shows detection latency and repair counts.
    """
    base = ClusterConfig(
        seed=seed,
        faults=FaultPlan(
            link=LinkFaults(drop_rate=0.001),
            # Kills land inside the window a 64-host collective is
            # actually in flight, so the failover/repair path really runs.
            failstop=FailStopFaults(random_switch_kills=kills,
                                    kill_window_ps=(us(2), us(20))),
        ),
    )
    return replace(base, **overrides) if overrides else base


PRESETS: Dict[str, Callable[..., ClusterConfig]] = {
    "paper_2003": paper_2003,
    "fast_fabric": fast_fabric,
    "fast_storage": fast_storage,
    "fast_switch_cpu": fast_switch_cpu,
    "balanced_2006": balanced_2006,
    "service_2003": service_2003,
    "chaos_2003": chaos_2003,
    "failstop_2003": failstop_2003,
}


def get_preset(name: str, **overrides) -> ClusterConfig:
    """Look up a preset by name."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; known: {sorted(PRESETS)}") from None
    return factory(**overrides)
