"""Process-wide caches for the config-pure parts of run construction.

Profiling the sweep layer showed that most of a small service point's
wall-clock goes to work that is a *pure function of the configuration*,
re-done for every point and every case:

* building the application (workload generation: ``grep``'s corpus,
  ``select``'s table, ``md5``'s input) — identical for all four cases
  of a cell and every rate point of a sweep;
* walking a freshly wired fabric's routing tables for the client hop
  counts (~0.9 s cold for a 1024-host tree) — identical for every rate
  point and both service cases.

This module holds one per-process cache for each.  Workers in the warm
pool (:mod:`repro.runner.pool`) keep these caches alive across tasks,
so the second point a worker simulates skips both.

Correctness: both caches are keyed by frozen, value-equal inputs
(:class:`~repro.runner.AppSpec`, the topology kind and host count),
hop lists are copied on the way out, and one app instance serves all
four cases of a cell.  ``tests/cluster/test_template.py`` proves
cache-shared runs equal cold-built runs for every registered app.
Unhashable specs bypass the app cache and build cold.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

#: Built applications kept per process (workload memory is the limit;
#: a paper-scale corpus is a few MB, so a handful is plenty).
_APP_CACHE_MAX = 8

_APP_CACHE: "OrderedDict" = OrderedDict()
_HOPS_CACHE: Dict[Tuple[str, int], Tuple[int, ...]] = {}

_STATS = {"app_hits": 0, "app_misses": 0,
          "hops_hits": 0, "hops_misses": 0,
          "bypasses": 0}


# ----------------------------------------------------------------------
# Built applications
# ----------------------------------------------------------------------
def cached_app(spec):
    """The built application for an :class:`~repro.runner.AppSpec`.

    One build per process per spec content: the four cases of a grid
    cell, every rate point of a sweep, and every timed pass of the repo
    benchmark (``benchmarks/e2e/run.py``) share the instance.  Runs
    build their own System and workload state (a reduce app keeps only
    its fabric audit's verdict), so sharing is bit-identical to cold
    builds — proven by ``tests/cluster/test_template.py``.
    """
    try:
        app = _APP_CACHE.get(spec)
    except TypeError:
        _STATS["bypasses"] += 1
        return spec.build()
    if app is not None:
        _STATS["app_hits"] += 1
        _APP_CACHE.move_to_end(spec)
        return app
    _STATS["app_misses"] += 1
    app = spec.build()
    _APP_CACHE[spec] = app
    while len(_APP_CACHE) > _APP_CACHE_MAX:
        _APP_CACHE.popitem(last=False)
    return app


def cached_service_app(spec):
    """The ``(app_spec, app)`` pair a :class:`ServiceSpec` runs against.

    Service specs at different offered rates (or different seeds,
    durations, SLOs...) share one built app: only the app name, preset,
    overrides, and scale reach workload generation.
    """
    from ..runner.spec import make_spec

    app_spec = make_spec(spec.app, preset=spec.preset,
                         overrides=dict(spec.overrides), scale=spec.scale)
    return app_spec, cached_app(app_spec)


# ----------------------------------------------------------------------
# Fabric-derived client hop counts
# ----------------------------------------------------------------------
def client_hops(kind: str, hosts: int) -> List[int]:
    """Switch hops from each host to ``host0`` (the serving host).

    Computed once per (kind, hosts) by wiring the real fabric — routing
    tables, ECMP groups included — and walking its paths; every rate
    point and both service cases then share the pure-data hop list.
    """
    if kind == "single" or hosts <= 1:
        return [1] * max(hosts, 1)
    key = (kind, hosts)
    hops = _HOPS_CACHE.get(key)
    if hops is None:
        _STATS["hops_misses"] += 1
        from ..sim.core import Environment
        from .fabric import TopologySpec, build_fabric
        env = Environment()
        fabric = build_fabric(env, TopologySpec(kind=kind, num_hosts=hosts))
        hops = tuple(fabric.client_hops())
        _HOPS_CACHE[key] = hops
    else:
        _STATS["hops_hits"] += 1
    return list(hops)


# ----------------------------------------------------------------------
# Lifecycle (tests, memory pressure)
# ----------------------------------------------------------------------
def clear_templates() -> None:
    """Drop every per-process template cache (cold-build from here)."""
    _APP_CACHE.clear()
    _HOPS_CACHE.clear()


def template_stats() -> Dict[str, int]:
    """Hit/miss counters plus current cache sizes (diagnostics)."""
    stats = dict(_STATS)
    stats.update(apps=len(_APP_CACHE), hops=len(_HOPS_CACHE))
    return stats
