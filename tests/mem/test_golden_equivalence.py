"""Golden-stats equivalence: memory scans vs the per-line oracle.

The range/stride scans in :mod:`repro.mem.hierarchy` claim bit-identity
with one scalar ``load``/``store`` per line (the oracle in
``per_line.py``).  These tests prove it the strong way: every paper
application, all four configurations, run once with the scans and once
with the oracle installed, comparing the full
:class:`CaseResult` (execution time, breakdowns, traffic) and the full
:class:`MetricsRegistry` snapshot — every ``CacheStats``, TLB, RDRAM,
and stall-picosecond counter for every CPU in the system — for exact
equality.  Request-sized blocks keep the sequences as long as at
registry scale, so with numpy the batched runs go through the numpy
decider, which each application's test checks; without numpy they
walk.  A fault-free chaos-preset cell checks the same through the
recovery-capable configuration.
"""

from dataclasses import replace

import pytest

from repro.cluster.config import case_configs
from repro.cluster.presets import chaos_2003
from repro.faults.plan import FaultPlan
from repro.mem import hierarchy
from repro.runner.harness import CASE_LABELS, Cell, cell_config
from repro.runner.spec import paper_grid

from .per_line import install

#: Extra factor on the registry scales — enough work to exercise every
#: path (TLB chunk boundaries, L2 writebacks, multi-node apps) while
#: keeping the double grid fast.
SCALE_FACTOR = 0.05

_GRID = {spec.label: spec for spec in paper_grid(scale=SCALE_FACTOR)}


def _run_case(app, config, perline):
    """One simulation; returns (CaseResult, metrics snapshot)."""
    sink = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        if perline:
            install(monkeypatch)
        result = app.run_case(config, metrics_sink=sink)
    return result, sink


def _assert_identical(label, batched, perline):
    result_b, sink_b = batched
    result_p, sink_p = perline
    diff = {k: (sink_p.get(k), sink_b.get(k))
            for k in set(sink_p) | set(sink_b)
            if sink_p.get(k) != sink_b.get(k)}
    assert diff == {}, f"{label}: counters diverge: {diff}"
    assert result_b == result_p, f"{label}: CaseResult diverges"


@pytest.mark.parametrize("label", sorted(_GRID))
def test_batched_path_is_bit_identical(label):
    spec = _GRID[label]
    app = spec.build()
    decider = "walk" if hierarchy._np is None else "numpy"
    before = hierarchy.DECIDED[decider + ".sequences"]
    for case in CASE_LABELS:
        config = cell_config(Cell(spec=spec, case=case, seed=None), app)
        batched = _run_case(app, config, False)
        perline = _run_case(app, config, True)
        _assert_identical(f"{label}/{case}", batched, perline)
    assert hierarchy.DECIDED[decider + ".sequences"] > before, decider


def test_chaos_preset_fault_free_is_bit_identical():
    """Same equivalence through the chaos preset (faults zeroed)."""
    from repro.apps.grep import GrepApp

    app = GrepApp(scale=SCALE_FACTOR)
    base = app.cluster_config()
    config = replace(
        chaos_2003(seed=0, faults=FaultPlan()),
        num_hosts=base.num_hosts,
        num_storage=base.num_storage,
        num_switch_cpus=base.num_switch_cpus,
        database_scaled_caches=base.database_scaled_caches,
        cache_scale_divisor=base.cache_scale_divisor,
    )
    for label, case_config in case_configs(config):
        batched = _run_case(app, case_config, False)
        perline = _run_case(app, case_config, True)
        _assert_identical(f"chaos/{label}", batched, perline)


def test_oracle_replaces_scan_path(monkeypatch):
    """Installing the oracle really routes scans through scalar accesses."""
    from repro.mem.hierarchy import build_host_hierarchy
    from repro.sim.units import Clock

    install(monkeypatch)
    hier = build_host_hierarchy(Clock(2e9))
    hier.load_range(0x1000, 4096)
    hier.store_stride(0x1000, 100, 50)
    hier.access_many([0x1000, 0x9000, 0x1000], (False, True, True))
    assert hier.dtlb.stats.accesses == 4096 // 32 + 50 + 3
    with pytest.raises(AssertionError, match="sequence decider"):
        hier._sequence(range(0x1000, 0x1020, 32), False)
