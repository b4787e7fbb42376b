"""Fluid-mode (``REPRO_SIM_FLUID=1``) accuracy and safety regression.

Fluid mode fast-forwards steady-state stream phases by sampling the
per-block cache-stall evaluation instead of driving the memory
hierarchy for every block (see :class:`repro.apps.base._StallSampler`
and docs/scaling.md).  It is opt-in and approximate, so three things
are pinned here:

* the error envelope — execution time within 0.1 % of exact (measured
  worst case is ~0.02 %, see docs/scaling.md for the full table);
* the work reduction — the hierarchy sees at least 2x fewer references
  (the deterministic proxy for its wall-clock speedup);
* the safety rails — off by default, results stamped with a
  ``fluid_mode`` provenance marker, and a distinct cache fingerprint so
  approximate results can never be restored as exact ones.
"""

import pytest

from repro.runner.harness import Cell, cell_config, cell_key
from repro.runner.spec import make_spec

#: Pinned envelope: |exec_fluid - exec_exact| / exec_exact per case.
MAX_REL_ERROR = 1e-3

#: Pinned work reduction on cache-heavy normal cases.
MIN_ACCESS_REDUCTION = 2.0


def _run(app_name, scale, case, fluid, monkeypatch):
    if fluid:
        monkeypatch.setenv("REPRO_SIM_FLUID", "1")
    else:
        monkeypatch.delenv("REPRO_SIM_FLUID", raising=False)
    spec = make_spec(app_name, scale=scale)
    app = spec.build()
    config = cell_config(Cell(spec=spec, case=case, seed=0), app)
    sink = {}
    result = app.run_case(config, metrics_sink=sink)
    return result, sink


def _hierarchy_accesses(sink):
    return sum(v for k, v in sink.items()
               if k.startswith("mem.") and k.endswith(".accesses"))


@pytest.mark.parametrize("app_name,scale,case", [
    ("select", 0.25, "normal"),
    ("select", 0.25, "normal+pref"),
    ("mpeg", 1.0, "normal"),
    ("mpeg", 1.0, "active"),
])
def test_fluid_error_within_envelope(app_name, scale, case, monkeypatch):
    exact, sink_e = _run(app_name, scale, case, False, monkeypatch)
    fluid, sink_f = _run(app_name, scale, case, True, monkeypatch)
    err = abs(fluid.exec_ps - exact.exec_ps) / exact.exec_ps
    assert err <= MAX_REL_ERROR, (
        f"{app_name}/{case}: fluid error {err:.2e} exceeds pinned "
        f"envelope {MAX_REL_ERROR:.0e}")
    # Busy cycles are never approximated — only stall sampling drifts.
    assert fluid.host.busy_ps == exact.host.busy_ps
    # Traffic is workload-determined, identical in both modes.
    assert fluid.host_bytes_in == exact.host_bytes_in
    assert fluid.host_bytes_out == exact.host_bytes_out


def test_fluid_reduces_hierarchy_work(monkeypatch):
    _, sink_e = _run("select", 0.25, "normal", False, monkeypatch)
    _, sink_f = _run("select", 0.25, "normal", True, monkeypatch)
    reduction = _hierarchy_accesses(sink_e) / max(
        _hierarchy_accesses(sink_f), 1)
    assert reduction >= MIN_ACCESS_REDUCTION, (
        f"fluid mode only cut hierarchy references by {reduction:.2f}x")


def test_fluid_is_opt_in_and_stamped(monkeypatch):
    exact, _ = _run("grep", 0.05, "normal", False, monkeypatch)
    assert "fluid_mode" not in exact.extra
    fluid, _ = _run("grep", 0.05, "normal", True, monkeypatch)
    assert fluid.extra.get("fluid_mode") == 1.0


def test_fluid_mode_changes_cache_fingerprint(monkeypatch):
    """Exact and fluid results must never share a cache entry."""
    spec = make_spec("grep", scale=0.05)
    cell = Cell(spec=spec, case="normal", seed=0)
    monkeypatch.delenv("REPRO_SIM_FLUID", raising=False)
    key_exact = cell_key(cell)
    monkeypatch.setenv("REPRO_SIM_FLUID", "1")
    key_fluid = cell_key(cell)
    assert key_exact != key_fluid


def test_fluid_mode_tag(monkeypatch):
    from repro.sim.burst import sim_mode_tag

    monkeypatch.delenv("REPRO_SIM_FLUID", raising=False)
    assert sim_mode_tag() == "exact"
    monkeypatch.setenv("REPRO_SIM_FLUID", "1")
    assert sim_mode_tag() == "fluid"
