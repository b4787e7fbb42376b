"""Persistent warm worker pool shared across the harness and sweeps.

Before this module, every ``ExperimentRunner.run_cells`` and every
``sweep_offered_load`` call created its own ``multiprocessing`` pool,
spawn-started for determinism — so each call re-paid one ``import
repro`` (~0.3 s) per worker before simulating anything, and a knee
search that issues several small batches paid it several times over.

:func:`shared_pool` keeps one spawn-started pool alive per process and
hands it to every caller: :class:`~repro.runner.ExperimentRunner`,
:func:`~repro.traffic.sweep.sweep_offered_load`, and the adaptive knee
search (:func:`~repro.traffic.sweep.find_knee`) all draw from the same
workers.  Workers are *warm*: the initializer imports :mod:`repro` and
pre-computes the code-version fingerprint, and each worker keeps the
per-process template caches (:mod:`repro.cluster.template`) —
fabric hop walks and built apps — so the second point a worker
simulates skips both.

Correctness guards:

* the pool is keyed by start method **and** the simulation-mode
  environment (``REPRO_SIM_FLUID``): spawned workers copy the parent
  environment at creation, so flipping the mode after the pool exists
  must retire the old workers — reusing them would silently simulate
  in the wrong mode;
* determinism is untouched: workers receive frozen specs and return
  the cache codec's JSON dicts, exactly as the per-call pools did, and
  the spawn start method still guarantees no inherited parent state.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from typing import Optional, Tuple

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV = "REPRO_RUNNER_START_METHOD"

#: Simulation-mode variables a worker bakes in at spawn time.
_SIM_ENV_VARS = ("REPRO_SIM_FLUID",)


def resolve_start_method(start_method: Optional[str]) -> str:
    """``start_method``, else :data:`START_METHOD_ENV`, else spawn."""
    return start_method or os.environ.get(START_METHOD_ENV, "spawn")


def _sim_signature() -> Tuple[Optional[str], ...]:
    """The sim-mode environment a freshly spawned worker would inherit."""
    return tuple(os.environ.get(name) for name in _SIM_ENV_VARS)


def _warm_worker() -> None:
    """Pool initializer: pay the one-time imports before any task.

    ``code_version()`` walks and hashes the source tree on first use;
    warming it here keeps it out of the first task's measured time and
    shares it across every task the worker ever runs.
    """
    import repro  # noqa: F401  (the import itself is the warm-up)
    from .fingerprint import code_version

    code_version()


class WorkerPool:
    """A lazily created, reusable spawn-context process pool.

    Thin wrapper over ``multiprocessing.pool.Pool`` that (a) defers
    creation until the first task batch, (b) warms workers through
    :func:`_warm_worker`, and (c) remembers its start method and size
    so :func:`shared_pool` can decide whether it is reusable.
    """

    def __init__(self, workers: int, start_method: Optional[str] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.start_method = resolve_start_method(start_method)
        self.sim_signature = _sim_signature()
        self._pool = None
        self.closed = False

    @property
    def pool(self):
        if self.closed:
            raise RuntimeError("worker pool is closed")
        if self._pool is None:
            context = multiprocessing.get_context(self.start_method)
            self.sim_signature = _sim_signature()
            self._pool = context.Pool(processes=self.workers,
                                      initializer=_warm_worker)
        return self._pool

    # ``chunksize=1`` everywhere: cells/rate points have very uneven
    # costs, and one-at-a-time dispatch keeps the pool load-balanced.
    def map(self, fn, items):
        return self.pool.map(fn, items, chunksize=1)

    def imap_unordered(self, fn, items):
        return self.pool.imap_unordered(fn, items, chunksize=1)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self.closed = True

    def __repr__(self) -> str:
        state = ("closed" if self.closed
                 else "warm" if self._pool is not None else "cold")
        return (f"<WorkerPool {self.workers} workers "
                f"start={self.start_method} {state}>")


_SHARED: Optional[WorkerPool] = None


def shared_pool(workers: int, start_method: Optional[str] = None) -> WorkerPool:
    """The process-wide warm pool, created/grown/recycled on demand.

    Reuses the existing pool when it is at least ``workers`` wide and
    was spawned under the same start method and sim-mode environment;
    otherwise the old pool is retired and a fresh one (sized to the
    larger of the two requests, so alternating callers don't thrash)
    replaces it.
    """
    global _SHARED
    method = resolve_start_method(start_method)
    pool = _SHARED
    if pool is not None and not pool.closed \
            and pool.start_method == method \
            and pool.sim_signature == _sim_signature() \
            and pool.workers >= workers:
        return pool
    size = workers
    if pool is not None:
        if not pool.closed and pool.start_method == method \
                and pool.sim_signature == _sim_signature():
            size = max(size, pool.workers)
        pool.close()
    _SHARED = WorkerPool(size, method)
    return _SHARED


def shutdown_shared_pool() -> None:
    """Retire the shared pool (tests; also registered at exit)."""
    global _SHARED
    if _SHARED is not None:
        _SHARED.close()
        _SHARED = None


atexit.register(shutdown_shared_pool)
