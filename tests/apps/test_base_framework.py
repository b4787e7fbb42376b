"""Unit tests for the StreamApp framework itself."""

import pytest

import repro
from repro.apps.base import BlockWork, StreamApp, finalize_case
from repro.cluster import ClusterConfig, System


class TinyApp(StreamApp):
    """A minimal two-block app used to probe the framework."""

    name = "tiny"
    request_bytes = 64 * 1024

    def prepare(self):
        for _ in range(2):
            self.blocks.append(BlockWork(
                nbytes=self.request_bytes,
                host_cycles=10_000,
                handler_cycles=8_000,
                out_bytes=1024,
                active_host_cycles=500,
            ))


def test_blockwork_defaults():
    work = BlockWork(nbytes=100)
    assert work.host_cycles == 0.0
    assert work.out_bytes == 0
    assert work.host_stall_fn is None


def test_stream_app_requires_blocks():
    class Empty(StreamApp):
        def prepare(self):
            pass

    with pytest.raises(ValueError):
        Empty()


def test_stream_app_rejects_bad_scale():
    with pytest.raises(ValueError):
        TinyApp(scale=0)
    with pytest.raises(ValueError):
        TinyApp(scale=-1)


def test_total_bytes_sums_blocks():
    app = TinyApp()
    assert app.total_bytes == 2 * 64 * 1024


def test_run_four_cases_produces_all_labels():
    result = repro.run(lambda: TinyApp())
    assert set(result.cases) == {"normal", "normal+pref", "active",
                                 "active+pref"}
    assert result.name == "tiny"


def test_four_cases_traffic_reflects_out_bytes():
    result = repro.run(lambda: TinyApp())
    # Active: only out_bytes reach the host.
    assert result.case("active").host_bytes_in == 2 * 1024
    assert result.case("normal").host_bytes_in == 2 * 64 * 1024


def test_active_case_has_switch_breakdowns():
    result = repro.run(lambda: TinyApp())
    assert result.case("active").switch_cpus
    assert result.case("normal").switch_cpus == []


def test_run_case_respects_config():
    app = TinyApp()
    normal = app.run_case(ClusterConfig().with_case(False, False))
    pref = app.run_case(ClusterConfig().with_case(False, True))
    assert normal.label == "normal"
    assert pref.label == "normal+pref"
    assert pref.exec_ps <= normal.exec_ps


def test_finalize_case_zero_length_run():
    system = System(ClusterConfig())
    case = finalize_case(system, "normal")
    assert case.exec_ps == 0
    assert case.host.utilization == 0.0


def test_stall_fns_receive_hierarchy():
    seen = {}

    class Probing(TinyApp):
        def prepare(self):
            def stall_fn(hierarchy):
                seen["hierarchy"] = hierarchy
                return 0

            self.blocks.append(BlockWork(
                nbytes=self.request_bytes,
                host_cycles=1,
                host_stall_fn=stall_fn,
            ))

    app = Probing()
    app.run_case(ClusterConfig().with_case(False, False))
    from repro.mem import MemoryHierarchy
    assert isinstance(seen["hierarchy"], MemoryHierarchy)
