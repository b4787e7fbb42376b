"""Open-loop service traffic over the simulated SAN.

The paper's benchmarks are closed-loop batch jobs; this package serves
them — deterministic arrival generators drive thousands of logical
client streams through an HCA admission queue into the simulated
cluster, and every request's latency lands in mergeable streaming
quantile sketches.  ``repro.serve()`` runs one configuration;
:func:`sweep_offered_load` runs a fixed offered-rate grid, and
:func:`find_knee` locates a configuration's saturation knee and max
sustainable RPS under an SLO in O(log) simulations (the
``ext_service_slo`` experiment).

See docs/traffic.md for the tutorial and docs/api.md for the typed
front-door contract.
"""

from .admission import ADMISSION_POLICIES, CLOSED, AdmissionQueue
from .arrivals import ARRIVAL_KINDS, Arrival, generate_schedule
from .service import (GOODPUT_TOLERANCE, SERVICE_CASES, ServiceResult,
                      ServiceSpec, make_service_spec, serve, service_key)
from .sweep import KneeSearch, ServiceSweep, find_knee, sweep_offered_load

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_KINDS",
    "AdmissionQueue",
    "Arrival",
    "CLOSED",
    "GOODPUT_TOLERANCE",
    "KneeSearch",
    "SERVICE_CASES",
    "ServiceResult",
    "ServiceSpec",
    "ServiceSweep",
    "find_knee",
    "generate_schedule",
    "make_service_spec",
    "serve",
    "service_key",
    "sweep_offered_load",
]
