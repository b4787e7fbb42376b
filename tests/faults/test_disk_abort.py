"""An exhausted disk retry budget aborts a run cleanly.

When every attempt on a spindle fails, :class:`~repro.io.DiskError`
must propagate out of ``run_case`` and ``serve()`` — and the aborted
simulation must leave no process behind that yields while it is being
closed, which Python reports as an unraisable ``RuntimeError:
generator ignored GeneratorExit`` once the environment is collected.
"""

import gc
from dataclasses import replace

import pytest

from repro.apps.grep import GrepApp
from repro.faults import DiskFaults, FaultPlan
from repro.io import DiskError
from repro.traffic.service import SERVICE_CASES, ServiceSpec, serve

#: Every one of the first 40 attempts per spindle fails; two retries
#: cannot get past them.
DEAD_DISKS = FaultPlan(disk=DiskFaults(error_requests=tuple(range(40)),
                                       max_retries=2))

pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning")


@pytest.mark.parametrize("case", ["normal", "active+pref"])
def test_disk_error_aborts_a_closed_loop_run(case):
    app = GrepApp(scale=0.05)
    config = replace(app.cluster_config(), faults=DEAD_DISKS).with_case(
        active=case.startswith("active"), prefetch=case.endswith("+pref"))
    with pytest.raises(DiskError):
        app.run_case(config)
    gc.collect()


@pytest.mark.parametrize("case", SERVICE_CASES)
def test_disk_error_aborts_a_service_run(case):
    spec = ServiceSpec(app="grep", case=case,
                       overrides=(("faults", DEAD_DISKS),))
    with pytest.raises(DiskError):
        serve(spec)
    gc.collect()
