"""Burst-level event batching: mode flags for the block-path fast path.

The memory hierarchy walks a whole scan in one Python call instead of
one per line, bit-identical to the per-line walk.  This module carries
the same contract one layer up, into the transport and dispatch
layers: the *burst* fast path replaces the per-block event cascade
(arm Resource round-trips, SCSI/TCA timeouts, wire Resource holds,
host-CPU Resource grants) with analytic free-at state plus a single
timeout per burst, computed from exactly the same component parameters
(see DESIGN.md section 2 and docs/scaling.md).

Two guarantees, enforced by ``tests/sim/test_golden_burst.py``:

* **bit-identity** — with the burst path on (the default), every
  simulated timestamp, CPU/cache/disk/traffic counter, and
  :class:`~repro.metrics.CaseResult` is identical to the per-block
  reference path (``REPRO_SIM_PERBLOCK=1``); only ``sim.event_count``
  differs, because fewer kernel events *is* the optimisation;
* **automatic fallback** — fault injection and structured tracing need
  the real event cascade (retries, per-span timing), so
  :meth:`repro.cluster.System.burst_ok` disables the fast path whenever
  an injector or trace collector is attached.

``REPRO_SIM_FLUID=1`` additionally enables the opt-in *fluid* mode for
the closed-loop stream benchmarks: steady-state stream phases reuse
sampled cache-stall values instead of re-driving the cache hierarchy
for every block (transitions — the first/last blocks of a stream — and
a periodic resample stay exact).  Fluid mode is approximate by design;
its accuracy envelope is pinned by ``tests/sim/test_fluid_mode.py`` and
documented in docs/scaling.md.
"""

from __future__ import annotations

import os

__all__ = [
    "FLUID_ENV", "PERBLOCK_ENV",
    "fluid_requested", "perblock_requested", "sim_mode_tag",
]

#: Debug flag restoring the per-block reference path.
PERBLOCK_ENV = "REPRO_SIM_PERBLOCK"

#: Opt-in approximate fluid mode for steady-state stream phases.
FLUID_ENV = "REPRO_SIM_FLUID"


def perblock_requested() -> bool:
    """True when the per-block reference path is forced on."""
    return bool(os.environ.get(PERBLOCK_ENV))


def fluid_requested() -> bool:
    """True when the approximate fluid mode is opted into."""
    return bool(os.environ.get(FLUID_ENV))


def sim_mode_tag() -> str:
    """Accuracy-affecting mode flags, for cache-key fingerprints.

    The burst/per-block choice is bit-identical so it never appears
    here; fluid mode changes results, so cached fluid runs must not
    collide with exact ones.
    """
    return "fluid" if fluid_requested() else "exact"
