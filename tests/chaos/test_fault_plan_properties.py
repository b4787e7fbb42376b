"""Property: transient disk faults cost time, never bytes.

Hypothesis draws disk fault plans — read and write error rates up to
0.3, scripted failing attempts, a varied firmware backoff — with a
retry budget (64) no drawn plan exhausts, and runs four paper apps
through all four configurations.  Recovery must be invisible in the
functional traffic and visible in time, every injected error must be
retried exactly once, and a run must be a pure function of its plan
and seed.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import case_configs
from repro.faults import DiskFaults, FaultPlan
from repro.runner.spec import paper_grid
from repro.sim.units import us

pytestmark = pytest.mark.chaos

_SPECS = {spec.label: spec for spec in paper_grid(scale=0.05)}

disk_plans = st.builds(
    DiskFaults,
    read_error_rate=st.floats(min_value=0.0, max_value=0.3),
    write_error_rate=st.floats(min_value=0.0, max_value=0.3),
    retry_backoff_ps=st.integers(min_value=1, max_value=us(2000)),
    max_retries=st.just(64),
    error_requests=st.lists(st.integers(min_value=0, max_value=40),
                            max_size=6, unique=True).map(
                                lambda xs: tuple(sorted(xs))),
)


@functools.lru_cache(maxsize=None)
def _app(label):
    return _SPECS[label].build()


@functools.lru_cache(maxsize=None)
def _fault_free(label):
    app = _app(label)
    return {case: app.run_case(config)
            for case, config in case_configs(app.cluster_config())}


def _runs(label, disk, seed):
    app = _app(label)
    base = dataclasses.replace(app.cluster_config(), seed=seed,
                               faults=FaultPlan(disk=disk))
    return {case: app.run_case(config)
            for case, config in case_configs(base)}


@pytest.mark.parametrize("label", ["grep", "select", "sort", "tar"])
@settings(max_examples=25, deadline=None)
@given(disk=disk_plans, seed=st.integers(min_value=0, max_value=2**16))
def test_disk_faults_cost_time_never_bytes(label, disk, seed):
    clean = _fault_free(label)
    runs = _runs(label, disk, seed)
    for case, result in runs.items():
        reference = clean[case]
        assert result.host_bytes_in == reference.host_bytes_in, case
        assert result.host_bytes_out == reference.host_bytes_out, case
        assert result.exec_ps >= reference.exec_ps, case
        extra = result.extra
        assert (extra.get("disk_retries", 0.0)
                == extra.get("disk_transient_errors", 0.0)
                == extra.get("injected_disk_errors", 0.0)), (case, extra)
    assert _runs(label, disk, seed) == runs
