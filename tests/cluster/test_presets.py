"""Tests for configuration presets and the benchmark CLI."""

import pytest

from repro.cluster.presets import (
    PRESETS,
    balanced_2006,
    fast_fabric,
    fast_storage,
    fast_switch_cpu,
    get_preset,
    paper_2003,
)
from repro.switch.active import ActiveSwitchConfig


def test_paper_preset_is_the_default_config():
    from repro.cluster import ClusterConfig
    assert paper_2003() == ClusterConfig()


def test_fast_fabric_scales_links_and_crossbar():
    config = fast_fabric()
    assert config.link.bandwidth_bytes_per_s == 10e9
    assert config.active_switch.crossbar_bandwidth_bytes_per_s == 10e9
    assert config.disk.bandwidth_bytes_per_s == 50e6  # unchanged


def test_fast_storage_scales_disks_only():
    config = fast_storage()
    assert config.disk.bandwidth_bytes_per_s == 400e6
    assert config.link.bandwidth_bytes_per_s == 1e9


def test_fast_switch_cpu_reaches_host_parity():
    config = fast_switch_cpu()
    assert config.active_switch.cpu_freq_hz == 2e9


def test_balanced_2006_touches_all_three():
    config = balanced_2006()
    assert config.link.bandwidth_bytes_per_s == 2e9
    assert config.active_switch.cpu_freq_hz == 1e9


def test_overrides_apply():
    config = fast_storage(num_hosts=4, prefetch_depth=2)
    assert config.num_hosts == 4
    assert config.prefetch_depth == 2
    assert config.disk.bandwidth_bytes_per_s == 400e6


def test_get_preset_by_name():
    assert get_preset("paper_2003") == paper_2003()
    with pytest.raises(KeyError):
        get_preset("warp_drive")


def test_registry_complete():
    assert set(PRESETS) == {"paper_2003", "fast_fabric", "fast_storage",
                            "fast_switch_cpu", "balanced_2006", "chaos_2003",
                            "failstop_2003", "service_2003"}


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("name", sorted(
    name for name in PRESETS
    if get_preset(name).active_switch != ActiveSwitchConfig()))
def test_switch_cpu_count_keeps_the_presets_switch(name, cpus):
    # Selecting a case with more switch CPUs than the preset's switch
    # has must change only the CPU count: clock and crossbar stay.
    from repro.runner import Cell, cell_config, make_spec
    preset = get_preset(name).active_switch
    spec = make_spec("md5", scale=1 / 64, num_switch_cpus=cpus, preset=name)
    for case in ("active", "active+pref"):
        switch = cell_config(Cell(spec=spec, case=case)).active_switch
        assert switch.num_cpus == cpus
        assert switch.cpu_freq_hz == preset.cpu_freq_hz
        assert (switch.crossbar_bandwidth_bytes_per_s
                == preset.crossbar_bandwidth_bytes_per_s)



def test_presets_build_working_systems():
    from repro.cluster import System
    for name in PRESETS:
        system = System(get_preset(name, active=True))
        assert system.switch is not None


# ----------------------------------------------------------------------
# The CLI
# ----------------------------------------------------------------------
def test_cli_lists_apps(capsys):
    from repro.apps.__main__ import main
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "grep" in out and "md5" in out


def test_cli_runs_a_benchmark(capsys):
    from repro.apps.__main__ import main
    assert main(["grep", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "active speedup" in out
    assert "n-HP" in out


def test_cli_preset_changes_outcome(capsys):
    from repro.apps.__main__ import main
    assert main(["grep", "--scale", "0.1", "--preset", "fast_storage"]) == 0
    out = capsys.readouterr().out
    assert "active speedup" in out
