"""The shared warm worker pool: reuse, recycling, and bit-identity.

The pool exists to amortise worker start-up across the harness, the
offered-load sweeps, and the adaptive knee search — so the tests here
pin down (a) when :func:`shared_pool` may hand back the same pool and
when it must retire it, and (b) that results through a warm, reused
pool stay field-identical to serial execution.
"""

import os

import pytest

from repro.runner.harness import ExperimentRunner
from repro.runner.pool import (WorkerPool, _sim_signature, shared_pool,
                               shutdown_shared_pool)
from repro.runner.spec import make_spec
from repro.traffic import ServiceSpec, sweep_offered_load

SPEC = make_spec("select", scale=1 / 128)

SERVICE = ServiceSpec(app="grep", case="active", rate_rps=4000.0,
                      duration_s=0.005, num_streams=4, num_keys=16,
                      depth=16, workers=4, seed=5)


@pytest.fixture(autouse=True)
def retire_shared_pool():
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


# ----------------------------------------------------------------------
# shared_pool lifecycle (no workers actually spawned: creation is lazy)
# ----------------------------------------------------------------------
def test_shared_pool_is_reused_and_grows():
    pool = shared_pool(2)
    assert shared_pool(2) is pool
    assert shared_pool(1) is pool          # narrower request: reuse
    wider = shared_pool(4)                 # wider request: replacement
    assert wider is not pool
    assert pool.closed
    assert wider.workers == 4
    assert shared_pool(2).workers == 4     # sized to the larger request


def test_shared_pool_recycles_on_sim_env_change(monkeypatch):
    pool = shared_pool(2)
    assert pool.sim_signature == _sim_signature()
    # Flip to whatever the ambient environment is *not*.
    flipped = "0" if os.environ.get("REPRO_SIM_FLUID") == "1" else "1"
    monkeypatch.setenv("REPRO_SIM_FLUID", flipped)
    recycled = shared_pool(2)
    assert recycled is not pool
    assert pool.closed                     # stale workers must retire
    monkeypatch.delenv("REPRO_SIM_FLUID")
    assert shared_pool(2) is not recycled


def test_worker_pool_validation_and_close():
    with pytest.raises(ValueError):
        WorkerPool(0)
    pool = WorkerPool(1)
    assert "cold" in repr(pool)
    pool.close()
    assert pool.closed
    with pytest.raises(RuntimeError):
        pool.map(str, [1])


# ----------------------------------------------------------------------
# Bit-identity through real (spawned) warm workers
# ----------------------------------------------------------------------
def test_runner_and_sweep_share_one_warm_pool():
    from repro.runner.cache import encode_case

    [serial] = ExperimentRunner(parallel=1).run_grid([SPEC])
    [fanned] = ExperimentRunner(parallel=2).run_grid([SPEC])
    assert {label: encode_case(case)
            for label, case in fanned.cases.items()} == \
        {label: encode_case(case)
         for label, case in serial.cases.items()}

    # The grid run above created the shared pool; the sweep must draw
    # from the same warm workers, and its results must match serial.
    pool = shared_pool(2)
    assert pool._pool is not None          # already spawned, still warm
    rates = (2000.0, 4000.0)
    parallel = sweep_offered_load(SERVICE, rates, parallel=2)
    assert shared_pool(2) is pool          # untouched by the sweep
    serial_sweep = sweep_offered_load(SERVICE, rates)
    assert [r.to_dict() for r in parallel.results] == \
        [r.to_dict() for r in serial_sweep.results]


def test_explicit_pool_injection():
    pool = WorkerPool(2)
    try:
        runner = ExperimentRunner(parallel=2, pool=pool)
        assert runner._pool is pool
        sweep = sweep_offered_load(SERVICE, (2000.0, 4000.0), pool=pool)
        assert pool._pool is not None      # the injected pool did the work
        serial = sweep_offered_load(SERVICE, (2000.0, 4000.0))
        assert [r.to_dict() for r in sweep.results] == \
            [r.to_dict() for r in serial.results]
    finally:
        pool.close()
