"""Golden transport fixtures: the burst engine against the frozen
per-block reference.

The burst engine (:mod:`repro.sim.burst`) replaced an event cascade
that moved every block through arm Resources, SCSI/TCA timeouts, wire
holds and CPU-pool grants.  ``golden/transport.json`` froze that
cascade's outputs — generated once by ``golden/generate.py`` from the
last revision that had it — for the paper grid, fault-injected grids,
open-loop serving, the write path, the two-level experiment and traced
runs (``golden/scenarios.py`` lists them).  Every scenario re-runs here
and must reproduce the frozen result JSON, the metrics digest and, for
traced scenarios, the trace digest exactly, while scheduling fewer
kernel events than the reference did: fewer events *is* the burst
engine.
"""

import json
from pathlib import Path

import pytest

from golden.scenarios import grid, scenarios

FIXTURE = json.loads(
    (Path(__file__).parent / "golden" / "transport.json").read_text())
GROUPS = scenarios()
LABELS = sorted(grid())


def _check(group):
    for name, run in GROUPS[group]():
        expected = FIXTURE["scenarios"][name]
        actual = json.loads(json.dumps(run()))
        assert actual["result"] == expected["result"], \
            f"{name}: result diverges"
        for key in ("metrics_sha256", "trace_sha256", "trace_summary"):
            assert actual.get(key) == expected.get(key), \
                f"{name}: {key} diverges"
        if "event_count" in expected:
            assert actual["event_count"] < expected["event_count"], (
                f"{name}: scheduled no fewer events than the per-block "
                f"reference ({actual['event_count']} vs "
                f"{expected['event_count']})")


def test_fixture_is_the_per_block_reference():
    assert FIXTURE["source"]["REPRO_SIM_PERBLOCK"] == "1"


@pytest.mark.parametrize("label", LABELS)
def test_burst_path_is_bit_identical(label):
    _check(f"grid:{label}")


@pytest.mark.parametrize("label", LABELS)
def test_faulted_grid_is_bit_identical(label):
    """``chaos_2003`` at seed 0, then a transient-error storm."""
    _check(f"chaos:{label}")
    _check(f"storm:{label}")


def test_chaos_preset_fault_free_is_bit_identical():
    _check("chaos-fault-free")


def test_repeated_disk_errors_are_bit_identical():
    """Scripted errors make single requests fail two and three times."""
    _check("repeated-errors")


def test_service_layer_is_bit_identical():
    """Open-loop serving: fault-free, ``chaos_2003``, error storm."""
    _check("serve")


def test_write_stream_is_bit_identical():
    _check("write-stream")


def test_two_level_rows_are_unchanged():
    """Active-storage reads and event-waiting handler dispatch."""
    _check("two-level")


def test_traced_runs_are_bit_identical():
    """Traces record the burst engine's own execution, event for event
    what the cascade traced (up to emission order)."""
    _check("traced")
