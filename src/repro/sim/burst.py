"""Burst-level event batching: the block path's one transport, and
its opt-in fluid mode.

The memory hierarchy walks a whole scan in one Python call instead of
one per line.  The *burst* engine carries the same idea one layer up,
into the transport and dispatch layers: a block's trip through the
storage node (TCA decode, SCSI arbitration, each spindle's arm queue,
positioning, transfer and transient-error retries), the bulk wires and
the switch CPU pool is priced from analytic free-at state, with one
timeout per pipeline stage instead of a cascade of Resource grants and
timeouts (see DESIGN.md section 2 and docs/scaling.md).

It is the only block-path transport, with or without a fault plan or a
trace collector attached, so a traced or faulted run executes exactly
the code an untraced one does.  The per-block event cascade it replaced
survives only as frozen outputs: ``tests/sim/golden/transport.json``
pins every result, metrics counter and trace event to what the cascade
produced, while the burst engine schedules fewer kernel events.

``REPRO_SIM_FLUID=1`` enables the opt-in *fluid* mode for
the closed-loop stream benchmarks: steady-state stream phases reuse
sampled cache-stall values instead of re-driving the cache hierarchy
for every block (transitions — the first/last blocks of a stream — and
a periodic resample stay exact).  Fluid mode is approximate by design;
its accuracy envelope is pinned by ``tests/sim/test_fluid_mode.py`` and
documented in docs/scaling.md.
"""

from __future__ import annotations

import os

__all__ = ["FLUID_ENV", "fluid_requested", "sim_mode_tag"]

#: Opt-in approximate fluid mode for steady-state stream phases.
FLUID_ENV = "REPRO_SIM_FLUID"


def fluid_requested() -> bool:
    """True when the approximate fluid mode is opted into."""
    return bool(os.environ.get(FLUID_ENV))


def sim_mode_tag() -> str:
    """Accuracy-affecting mode flags, for cache-key fingerprints.

    Fluid mode changes results, so cached fluid runs must not collide
    with exact ones.
    """
    return "fluid" if fluid_requested() else "exact"
