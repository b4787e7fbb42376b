"""The process-pool experiment harness.

One experiment *cell* is (application spec, case label, optional seed
override); a grid is a list of cells.  :class:`ExperimentRunner` runs a
grid with

* **deterministic per-cell execution** — a cell is a pure function of
  its spec + case + seed (every simulation builds a fresh workload,
  environment, and cluster from those alone), so the same cell produces
  the bit-identical :class:`~repro.metrics.CaseResult` whether it runs
  serially, in a worker process, or is restored from cache;
* **fan-out** across a process pool (``parallel`` workers, spawn start
  method by default so results can never depend on inherited parent
  state);
* **result caching** keyed by the cell fingerprint plus the code
  version (see :mod:`repro.runner.fingerprint`): a hit skips the
  simulation entirely and restores the stored result;
* **structured progress/ETA** via :mod:`repro.runner.progress`.

Workers communicate in the cache's JSON codec, so the parallel path and
the cache path reconstruct results through the same exact decoder.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cluster.config import CASE_ORDER
from ..metrics.results import BenchmarkResult, CaseResult
from .cache import ResultCache, decode_case, encode_case, resolve_cache
from .fingerprint import FingerprintError, code_version, fingerprint
from .pool import WorkerPool, resolve_start_method, shared_pool
from .progress import CellEvent, Progress, make_progress
from .spec import AppSpec, make_spec

#: The paper's presentation order for the four configurations.
CASE_LABELS = CASE_ORDER


class RunnerError(RuntimeError):
    """A grid cell failed inside a worker; carries the worker traceback."""


@dataclass(frozen=True)
class Cell:
    """One point of the (app x case x seed) grid."""

    spec: AppSpec
    case: str
    #: Optional :class:`ClusterConfig` master-seed override; ``None``
    #: keeps the configuration's own seed.
    seed: Optional[int] = None

    def __post_init__(self):
        if self.case not in CASE_LABELS:
            raise ValueError(
                f"unknown case {self.case!r}; expected one of {CASE_LABELS}")


def cell_config(cell: Cell, app=None):
    """The exact :class:`ClusterConfig` the cell simulates."""
    config = cell.spec.base_config(app)
    if cell.seed is not None:
        config = replace(config, seed=cell.seed)
    return config.with_case_label(cell.case)


def simulate_cell(cell: Cell, app=None, trace=None, profiler=None
                  ) -> Tuple[CaseResult, float, Optional[str]]:
    """The one cell body: build, configure, run, time, fingerprint.

    Returns ``(case, elapsed_s, config_print)``.  ``app`` supplies an
    already-built application (a factory's fresh instance) instead of
    the spec's per-process cached one.  ``trace`` (a
    ``repro.obs.TraceCollector``) and ``profiler`` (a
    ``cProfile.Profile``, enabled around ``run_case`` only) are optional
    observers; neither changes the result.
    """
    from ..cluster.template import cached_app

    started = time.perf_counter()
    if app is None:
        app = cached_app(cell.spec)
    config = cell_config(cell, app)
    if profiler is not None:
        profiler.enable()
    try:
        case = (app.run_case(config) if trace is None
                else app.run_case(config, trace=trace))
    finally:
        if profiler is not None:
            profiler.disable()
    elapsed = time.perf_counter() - started
    try:
        config_print = fingerprint("config", config)
    except FingerprintError:
        config_print = None
    return case, elapsed, config_print


def run_cell(cell: Cell) -> CaseResult:
    """Simulate one cell from scratch (any process, any order)."""
    return simulate_cell(cell)[0]


def cell_key(cell: Cell) -> str:
    """Cache key: canonical cell fingerprint + the code version.

    The spec's parameters, preset, and overrides determine the cell's
    :class:`ClusterConfig` as a pure function of the code version, so
    the three parts together fingerprint the full configuration; the
    realized config's own fingerprint is additionally stored in the
    entry metadata by :meth:`ExperimentRunner.run_cells` for auditing.
    The simulation mode tag (exact vs the opt-in approximate fluid
    mode, see :mod:`repro.sim.burst`) keeps the two result populations
    from ever sharing cache entries.
    """
    from ..sim.burst import sim_mode_tag
    return fingerprint("cell", cell.spec, cell.case, cell.seed,
                       code_version(), sim_mode_tag())


def _execute_cell(payload: Tuple[int, Cell]):
    """Pool worker: run one cell, return its encoded result.

    Results travel as the cache codec's JSON dicts so the parent
    reconstructs them with the same decoder used for cache hits.
    """
    index, cell = payload
    try:
        case, elapsed, config_print = simulate_cell(cell)
        return ("ok", index, encode_case(case), elapsed, config_print)
    except BaseException:
        return ("error", index, traceback.format_exc(), 0.0, None)


class ExperimentRunner:
    """Runs experiment grids serially or across a process pool."""

    def __init__(self, parallel: int = 1,
                 cache: Union[None, bool, str, "os.PathLike", ResultCache] = None,
                 progress: Optional[Progress] = None,
                 show_progress: bool = False,
                 start_method: Optional[str] = None,
                 pool: Optional[WorkerPool] = None):
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        self.parallel = parallel
        self.cache = resolve_cache(cache)
        self._progress = progress
        self._show_progress = show_progress
        self._start_method = resolve_start_method(start_method)
        #: Explicit pool injection (tests); ``None`` draws from the
        #: process-wide warm pool (:func:`repro.runner.pool.shared_pool`).
        self._pool = pool

    # ------------------------------------------------------------------
    # Core engine
    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[Cell]) -> List[CaseResult]:
        """Run ``cells``; results align with the input order."""
        cells = list(cells)
        progress = self._progress or make_progress(
            len(cells), show=self._show_progress)
        results: List[Optional[CaseResult]] = [None] * len(cells)
        pending: List[Tuple[int, Cell]] = []

        # Explicit None check: ResultCache defines __len__, so an empty
        # cache is falsy and a bare truth test would skip lookups.
        for index, cell in enumerate(cells):
            cached = (self.cache.get(cell_key(cell))
                      if self.cache is not None else None)
            if cached is not None:
                results[index] = cached
                self._record(progress, index, cell, cached, 0.0, True)
            else:
                pending.append((index, cell))

        if pending:
            if self.parallel > 1 and len(pending) > 1:
                self._run_pool(pending, cells, results, progress)
            else:
                self._run_serial(pending, cells, results, progress)
        return results  # type: ignore[return-value]

    def _run_serial(self, pending, cells, results, progress) -> None:
        for index, cell in pending:
            case, elapsed, config_print = simulate_cell(cell)
            self._store(cell, case, elapsed, config_print)
            results[index] = case
            self._record(progress, index, cell, case, elapsed, False)

    def _run_pool(self, pending, cells, results, progress) -> None:
        workers = min(self.parallel, len(pending))
        pool = self._pool if self._pool is not None \
            else shared_pool(workers, self._start_method)
        outcomes = pool.imap_unordered(_execute_cell, pending)
        for status, index, payload, elapsed, config_print in outcomes:
            cell = cells[index]
            if status != "ok":
                raise RunnerError(
                    f"cell {cell.spec.label}/{cell.case} failed in a "
                    f"worker:\n{payload}")
            case = decode_case(payload)
            self._store(cell, case, elapsed, config_print)
            results[index] = case
            self._record(progress, index, cell, case, elapsed, False)

    def _store(self, cell: Cell, case: CaseResult, elapsed: float,
               config_print: Optional[str] = None) -> None:
        if self.cache is None:
            return
        self.cache.put(cell_key(cell), case, meta={
            "app": cell.spec.label,
            "case": cell.case,
            "seed": cell.seed,
            "elapsed_s": elapsed,
            "config_fingerprint": config_print,
            "code_version": code_version(),
        })

    @staticmethod
    def _record(progress: Progress, index: int, cell: Cell,
                case: CaseResult, elapsed: float, cached: bool) -> None:
        progress.record(CellEvent(
            index=index, total=progress.total, app=cell.spec.label,
            case=cell.case, elapsed_s=elapsed, cached=cached,
            exec_ps=case.exec_ps))

    # ------------------------------------------------------------------
    # Grid conveniences
    # ------------------------------------------------------------------
    def run_app(self, app, cases: Optional[Sequence[str]] = None,
                seed: Optional[int] = None, name: Optional[str] = None,
                **params) -> BenchmarkResult:
        """All requested cases of one application as a result object."""
        spec = make_spec(app, **params)
        labels = tuple(cases) if cases is not None else CASE_LABELS
        cells = [Cell(spec=spec, case=label, seed=seed) for label in labels]
        results = self.run_cells(cells)
        return BenchmarkResult(
            name=name or spec.app,
            cases={label: case for label, case in zip(labels, results)})

    def run_grid(self, specs: Sequence[AppSpec],
                 cases: Optional[Sequence[str]] = None,
                 seeds: Sequence[Optional[int]] = (None,),
                 ) -> Dict[Tuple[str, Optional[int]], BenchmarkResult]:
        """The full (app x case x seed) grid in one pool pass.

        Returns ``{(spec label, seed): BenchmarkResult}``; every cell of
        every application shares the same pool, so wide grids load all
        workers even when individual apps have few cases.
        """
        labels = tuple(cases) if cases is not None else CASE_LABELS
        cells = [Cell(spec=spec, case=label, seed=seed)
                 for spec in specs for seed in seeds for label in labels]
        results = self.run_cells(cells)
        grid: Dict[Tuple[str, Optional[int]], BenchmarkResult] = {}
        cursor = 0
        for spec in specs:
            for seed in seeds:
                cases_map = {}
                for label in labels:
                    cases_map[label] = results[cursor]
                    cursor += 1
                grid[(spec.label, seed)] = BenchmarkResult(
                    name=spec.label, cases=cases_map)
        return grid

    def __repr__(self) -> str:
        root = self.cache.root if self.cache is not None else None
        return (f"<ExperimentRunner parallel={self.parallel} "
                f"cache={root} start={self._start_method}>")
