"""Perf-regression harness: the ``BENCH_*.json`` trajectory.

The simulator's correctness story is covered by the test suite; this
package covers its *speed*.  ``python -m repro.bench`` times the
standard application grid cell by cell — wall-clock seconds, simulation
events per second, and cache accesses per second — and emits a
``BENCH_<n>.json`` snapshot.  Committing one snapshot per perf-relevant
PR builds a trajectory the next optimisation can be measured against::

    python -m repro.bench                       # full grid -> BENCH_<n>.json
    python -m repro.bench --quick               # scan-heavy smoke grid
    python -m repro.bench --compare BENCH_5.json --threshold 0.30

Measurement methodology (same rules for every snapshot, so files stay
comparable):

* a *cell* is one (app, case) pair; its ``wall_s`` covers exactly
  ``StreamApp.run_case`` — workload generation is timed separately as
  the per-app ``prepare_s``, because it is amortised across cases and
  is not part of the simulator hot path;
* ``events_per_s`` is the DES kernel throughput
  (``sim.event_count / wall_s``);
* ``cache_accesses_per_s`` is the memory-model throughput: the sum of
  every ``mem.*.{l1d,l1i,l2}.accesses`` counter from the system's
  :class:`~repro.obs.MetricsRegistry` divided by ``wall_s`` — the same
  names traces and experiments read, so bench numbers and observability
  share one vocabulary;
* cells run serially, in process, uncached (a cache hit measures
  nothing).

Comparison is tolerant by design: CI runners are noisy, so
:func:`compare` *fails* only past a configurable regression threshold
(default 30%) on per-app wall-clock, and merely *warns* on smaller
slowdowns or per-cell noise.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..metrics.report import render_table
from ..runner.harness import CASE_LABELS, Cell, cell_config
from ..runner.spec import DEFAULT_SCALES, AppSpec, make_spec, paper_grid

#: Cache levels whose ``accesses`` counters make up the throughput rate.
CACHE_LEVELS = ("l1d", "l1i", "l2")

#: The scan-heavy apps the ``--quick`` smoke grid exercises (the cells
#: the memory-hierarchy fast path matters most for).
QUICK_APPS = ("select", "grep", "sort", "tar")

#: Extra workload scale factor applied by ``--quick``.
QUICK_SCALE = 0.25

#: The trajectory starts at PR 5 (the hot-path overhaul); earlier PRs
#: predate the harness.
FIRST_BENCH_ID = 5

#: Best-of-N repeats for the service cells.  The simulation is
#: deterministic — repeats measure the same run — so the minimum is the
#: least-noisy wall-clock estimate, and the cells are small enough that
#: five runs stay cheap.  (The grid cells don't repeat: their walls are
#: an order of magnitude larger, so runner noise matters less.)
SERVICE_REPEATS = 5

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def quick_grid(scale: Optional[float] = None) -> Tuple[AppSpec, ...]:
    """The reduced scan-heavy grid behind ``--quick``."""
    factor = QUICK_SCALE if scale is None else scale
    return tuple(
        make_spec(name, scale=DEFAULT_SCALES.get(name, 1.0) * factor)
        for name in QUICK_APPS)


def _cell_metrics(sink: Dict[str, float]) -> Tuple[Optional[int], Dict[str, int]]:
    """(event count, per-level cache access counts) from a snapshot."""
    events = sink.get("sim.event_count")
    by_level: Dict[str, int] = {}
    for name, value in sink.items():
        parts = name.split(".")
        if (parts[0] == "mem" and parts[-1] == "accesses"
                and parts[-2] in CACHE_LEVELS):
            by_level[parts[-2]] = by_level.get(parts[-2], 0) + int(value)
    return (int(events) if events is not None else None), by_level


def _rate(count: Optional[int], wall_s: float) -> Optional[float]:
    if count is None or wall_s <= 0:
        return None
    return count / wall_s


def _takes_metrics_sink(app) -> bool:
    import inspect

    try:
        return "metrics_sink" in inspect.signature(app.run_case).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False


def run_bench(specs: Sequence[AppSpec],
              cases: Sequence[str] = CASE_LABELS,
              seed: Optional[int] = None,
              progress=None) -> dict:
    """Time every (spec, case) cell; returns the snapshot document body.

    ``progress`` is an optional callable receiving one human-readable
    line per finished cell.
    """
    cells: Dict[str, dict] = {}
    apps: Dict[str, dict] = {}
    for spec in specs:
        t0 = time.perf_counter()
        app = spec.build()
        prepare_s = time.perf_counter() - t0
        app_wall = 0.0
        app_events = 0
        app_accesses = 0
        counters_seen = False
        for case in cases:
            config = cell_config(Cell(spec=spec, case=case, seed=seed), app)
            sink: Dict[str, float] = {}
            t0 = time.perf_counter()
            if _takes_metrics_sink(app):
                result = app.run_case(config, metrics_sink=sink)
            else:
                # Older run_case without the metrics hook (used when this
                # harness measures a pre-hook checkout as a baseline).
                result = app.run_case(config)
            wall_s = time.perf_counter() - t0
            events, by_level = _cell_metrics(sink)
            accesses = sum(by_level.values()) if by_level else None
            key = f"{spec.label}/{case}"
            cells[key] = {
                "wall_s": round(wall_s, 6),
                "exec_ps": result.exec_ps,
                "events": events,
                "events_per_s": _rate(events, wall_s),
                "cache_accesses": accesses,
                "cache_accesses_by_level": by_level or None,
                "cache_accesses_per_s": _rate(accesses, wall_s),
            }
            app_wall += wall_s
            if events is not None:
                app_events += events
                counters_seen = True
            if accesses is not None:
                app_accesses += accesses
            if progress is not None:
                rate = cells[key]["cache_accesses_per_s"]
                progress(f"{key}: {wall_s:.2f}s"
                         + (f", {rate / 1e6:.2f} M cache accesses/s"
                            if rate else ""))
        apps[spec.label] = {
            "prepare_s": round(prepare_s, 6),
            "wall_s": round(app_wall, 6),
            "events_per_s": _rate(app_events if counters_seen else None,
                                  app_wall),
            "cache_accesses_per_s": _rate(
                app_accesses if counters_seen else None, app_wall),
        }
    return {"cells": cells, "apps": apps}


# ----------------------------------------------------------------------
# Open-loop service / fabric cells
# ----------------------------------------------------------------------
def service_grid():
    """The open-loop traffic cells the bench times (PR 9 onward).

    One single-switch serving cell plus two fat-tree fabric cells —
    the configurations the burst engine (docs/scaling.md) exists for:
    event-dominated request pipelines at rates the per-block event
    cascade it replaced could not sustain.  Active-case and just under
    saturation (~3000 rps against a ~3800 rps ceiling) so every request
    exercises the whole post/storage/handler/downlink pipeline and the
    cells measure transport/dispatch throughput, not the memory
    hierarchy (the standard grid already covers that) and not drop
    processing; one simulated second keeps the wall-clock large enough
    to time stably.
    """
    from ..traffic.service import ServiceSpec

    return (
        ServiceSpec(app="grep", case="active", topology="single",
                    rate_rps=3000.0, duration_s=1.0),
        ServiceSpec(app="grep", case="active", topology="fat_tree",
                    hosts=16, rate_rps=3000.0, duration_s=1.0),
        ServiceSpec(app="grep", case="active", topology="fat_tree",
                    hosts=64, rate_rps=3000.0, duration_s=1.0),
    )


def service_cell_key(spec) -> str:
    """Snapshot key of one service cell.

    The spec label omits the fabric size, and two fat-tree cells at
    different host counts must not share a key.
    """
    key = f"serve:{spec.label}"
    if spec.topology != "single":
        key += f" hosts={spec.hosts}"
    return key


def run_service_bench(specs=None, progress=None,
                      repeats: int = SERVICE_REPEATS) -> dict:
    """Time the service cells.

    Mirrors :func:`run_bench`'s methodology: the app/workload build is
    the separately-timed ``prepare_s``; ``wall_s`` covers exactly one
    ``_simulate`` call (best of ``repeats``), in exact (non-fluid) mode.
    Equivalence with the per-block cascade these cells were once timed
    against is pinned by tests/sim/test_golden_burst.py.
    """
    import gc

    from ..traffic.service import _simulate, build_service_app

    if specs is None:
        specs = service_grid()
    cells: Dict[str, dict] = {}
    apps: Dict[str, dict] = {}
    saved = os.environ.pop("REPRO_SIM_FLUID", None)
    try:
        for spec in specs:
            key = service_cell_key(spec)
            t0 = time.perf_counter()
            prebuilt = build_service_app(spec)
            prepare_s = time.perf_counter() - t0
            wall_s, result = None, None
            for _ in range(max(repeats, 1)):
                gc.collect()  # don't bill one rep for another's garbage
                t0 = time.perf_counter()
                result = _simulate(spec, prebuilt=prebuilt)
                wall = time.perf_counter() - t0
                wall_s = wall if wall_s is None else min(wall_s, wall)
            cells[key] = {
                "wall_s": round(wall_s, 6),
                "requests_completed": result.completed,
                "requests_dropped": result.dropped,
                "p99_latency_us": result.latency_us.get("p99"),
            }
            apps[key] = {
                "prepare_s": round(prepare_s, 6),
                "wall_s": round(wall_s, 6),
            }
            if progress is not None:
                progress(f"{key}: {wall_s:.2f}s")
    finally:
        if saved is not None:
            os.environ["REPRO_SIM_FLUID"] = saved
    return {"cells": cells, "apps": apps}


# ----------------------------------------------------------------------
# Sweep cells: adaptive knee search vs the fixed grid (PR 10 onward)
# ----------------------------------------------------------------------
def sweep_grid():
    """The knee-search cells the bench times.

    The active-case specs of the ``ext_service_slo`` experiment — one
    per topology — probed over that experiment's 16-point rate grid.
    Short durations keep a 16-sim exhaustive grid affordable inside a
    bench run while the knee still lands mid-grid, so the bisection
    does real work rather than falling off either end.
    """
    from ..experiments.service_slo import RATES, TOPOLOGIES, _base_spec

    return tuple((_base_spec("active", topology, hosts), RATES)
                 for topology, hosts in TOPOLOGIES)


def sweep_cell_key(spec) -> str:
    key = f"sweep:{spec.label}"
    if spec.topology != "single":
        key += f" hosts={spec.hosts}"
    return key


def run_sweep_bench(cells_in=None, progress=None) -> dict:
    """Time the adaptive knee search against the exhaustive sweep.

    Methodology matches :func:`run_service_bench`: warming the template
    caches (built app, fabric hop walk) is the separately-timed
    ``prepare_s``; ``wall_s`` covers exactly one adaptive
    :func:`~repro.traffic.find_knee` call, ``grid_wall_s`` one
    exhaustive :func:`~repro.traffic.sweep_offered_load` over the same
    rates, the reference.  No result cache — a cache hit measures
    nothing.  Every cell *verifies both return the same knee* before
    reporting, so each committed snapshot re-proves the equivalence the
    speedup rests on, and records the simulation counts behind it
    (``sims`` vs ``grid_sims``, the points the sweep simulated).
    """
    from ..traffic.sweep import find_knee, sweep_offered_load

    if cells_in is None:
        cells_in = sweep_grid()
    cells: Dict[str, dict] = {}
    apps: Dict[str, dict] = {}
    for spec, rates in cells_in:
        key = sweep_cell_key(spec)
        t0 = time.perf_counter()
        # One throwaway probe warms every per-process template cache
        # (built app, hop walk) so neither timed search is billed for
        # one-time construction the other then reuses.
        find_knee(spec, rates[:1])
        prepare_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        adaptive = find_knee(spec, rates)
        wall_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        grid = sweep_offered_load(spec, rates)
        grid_wall_s = time.perf_counter() - t0
        verdict = {k: v for k, v in adaptive.knee().items()
                   if k not in ("sims", "evaluations")}
        if verdict != grid.knee():
            raise RuntimeError(  # pragma: no cover - equivalence bug
                f"{key}: adaptive and exhaustive knees disagree")
        grid_sims = len(grid.results)
        cells[key] = {
            "wall_s": round(wall_s, 6),
            "grid_wall_s": round(grid_wall_s, 6),
            "speedup_vs_grid": round(grid_wall_s / wall_s, 4),
            "sims": adaptive.sims,
            "grid_sims": grid_sims,
            "knee_rps": adaptive.knee_rps,
            "max_sustainable_rps":
                adaptive.best.rate_rps if adaptive.best else None,
        }
        apps[key] = {
            "prepare_s": round(prepare_s, 6),
            "wall_s": round(wall_s, 6),
        }
        if progress is not None:
            progress(f"{key}: {wall_s:.2f}s adaptive ({adaptive.sims} sims), "
                     f"{grid_wall_s:.2f}s grid ({grid_sims} sims, "
                     f"{grid_wall_s / wall_s:.1f}x)")
    return {"cells": cells, "apps": apps}


# ----------------------------------------------------------------------
# Snapshot files
# ----------------------------------------------------------------------
def make_document(measurements: dict, *, bench_id: int,
                  quick: bool) -> dict:
    """Wrap raw measurements in the committed-snapshot envelope."""
    from ..runner.fingerprint import code_version

    return {
        "schema": "repro-bench/1",
        "bench_id": bench_id,
        "quick": quick,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "code_version": code_version(),
        **measurements,
    }


def save(document: dict, path) -> str:
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def load(path) -> dict:
    with open(os.fspath(path), encoding="utf-8") as fh:
        document = json.load(fh)
    if "cells" not in document or "apps" not in document:
        raise ValueError(f"{path}: not a repro-bench snapshot")
    return document


def existing_bench_ids(directory=".") -> List[int]:
    """Sorted ids of the ``BENCH_<n>.json`` files in ``directory``."""
    ids = []
    for name in os.listdir(os.fspath(directory)):
        match = _BENCH_RE.match(name)
        if match:
            ids.append(int(match.group(1)))
    return sorted(ids)


def next_bench_id(directory=".") -> int:
    ids = existing_bench_ids(directory)
    return max(ids) + 1 if ids else FIRST_BENCH_ID


def previous_bench_path(directory=".", quick: Optional[bool] = None) -> Optional[str]:
    """The highest-numbered committed snapshot, if any.

    With ``quick`` given, prefers the newest snapshot of that flavor —
    a quick run is 0.25x-scale, so its grid cells are not wall-clock
    comparable with a full run's (see :func:`compare`).  Falls back to
    the newest snapshot of either flavor when none match.
    """
    ids = existing_bench_ids(directory)
    if not ids:
        return None
    directory = os.fspath(directory)
    paths = [os.path.join(directory, f"BENCH_{i}.json") for i in ids]
    if quick is not None:
        for path in reversed(paths):
            try:
                if bool(load(path).get("quick")) == quick:
                    return path
            except (ValueError, OSError):  # pragma: no cover - bad file
                continue
    return paths[-1]


# ----------------------------------------------------------------------
# Regression comparison
# ----------------------------------------------------------------------
def compare(current: dict, baseline: dict,
            threshold: float = 0.30) -> dict:
    """Per-app and per-cell wall-clock comparison against a baseline.

    Returns a verdict dict: ``speedup`` > 1 means the current snapshot
    is faster.  ``regressions`` lists apps slower than ``1 + threshold``
    times the baseline — the only condition that makes ``ok`` false;
    ``warnings`` lists smaller per-app slowdowns and per-cell noise.
    Only keys present in both snapshots are compared, so a quick run
    checks cleanly against a quick baseline.

    Quick and full snapshots run the grid at different workload scales,
    so their grid walls are not comparable even where labels match;
    when the two flavors differ only the scale-independent open-loop
    ``serve:*`` / ``sweep:*`` cells (fixed specs on every flavor) are
    compared, and a warning records the restriction.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    apps: Dict[str, dict] = {}
    regressions: List[str] = []
    warnings: List[str] = []
    comparable = lambda label: True
    if bool(current.get("quick")) != bool(baseline.get("quick")):
        comparable = lambda label: label.startswith(("serve:", "sweep:"))
        warnings.append(
            "flavor mismatch (quick vs full): grid cells run at "
            "different workload scales, comparing only serve:* and "
            "sweep:* cells")
    for label in sorted(label for label
                        in set(current["apps"]) & set(baseline["apps"])
                        if comparable(label)):
        base_s = baseline["apps"][label]["wall_s"]
        cur_s = current["apps"][label]["wall_s"]
        speedup = base_s / cur_s if cur_s else float("inf")
        apps[label] = {
            "wall_s": cur_s, "baseline_wall_s": base_s,
            "speedup": round(speedup, 4),
        }
        if cur_s > base_s * (1 + threshold):
            regressions.append(
                f"{label}: {cur_s:.2f}s vs baseline {base_s:.2f}s "
                f"({cur_s / base_s:.2f}x slower)")
        elif cur_s > base_s:
            warnings.append(
                f"{label}: {cur_s:.2f}s vs baseline {base_s:.2f}s "
                f"(within the {threshold:.0%} noise tolerance)")
    cell_speedups: Dict[str, float] = {}
    for key in sorted(k for k in set(current["cells"]) & set(baseline["cells"])
                      if comparable(k)):
        base_s = baseline["cells"][key]["wall_s"]
        cur_s = current["cells"][key]["wall_s"]
        if cur_s:
            cell_speedups[key] = round(base_s / cur_s, 4)
    return {
        "threshold": threshold,
        "apps": apps,
        "cells": cell_speedups,
        "regressions": regressions,
        "warnings": warnings,
        "ok": not regressions,
    }


def comparison_table(verdict: dict) -> str:
    """Human-readable rendering of a :func:`compare` verdict."""
    rows = [[label, f"{entry['baseline_wall_s']:.2f}",
             f"{entry['wall_s']:.2f}", f"{entry['speedup']:.2f}x"]
            for label, entry in verdict["apps"].items()]
    table = render_table(["app", "baseline (s)", "current (s)", "speedup"],
                         rows)
    lines = ["bench comparison (wall-clock per app)", table]
    for warning in verdict["warnings"]:
        lines.append(f"warn: {warning}")
    for regression in verdict["regressions"]:
        lines.append(f"FAIL: {regression}")
    return "\n".join(lines)


__all__ = [
    "CACHE_LEVELS", "QUICK_APPS", "QUICK_SCALE", "SERVICE_REPEATS",
    "compare", "comparison_table", "existing_bench_ids", "load",
    "make_document", "next_bench_id", "previous_bench_path",
    "quick_grid", "run_bench", "run_service_bench", "run_sweep_bench",
    "save", "service_cell_key", "service_grid", "sweep_cell_key",
    "sweep_grid",
]
