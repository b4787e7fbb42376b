"""The unified ``repro.run()`` front door.

One call runs any registered application through the harness::

    import repro

    result = repro.run("grep", scale=0.25)             # serial
    result = repro.run("grep", scale=0.25, parallel=4) # process pool
    result = repro.run("grep", scale=0.25, cache=True) # cached

``run`` returns a :class:`RunResult` — a
:class:`~repro.metrics.BenchmarkResult` carrying harness statistics and
the :meth:`~repro.metrics.BenchmarkResult.report` accessor — and is
deterministic: serial, parallel, and cache-restored invocations produce
field-identical results.

:func:`configure` sets process-wide defaults (picked up by the
experiment registry, so ``python -m repro.experiments --parallel N``
routes every figure through the same pool).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..metrics.results import BenchmarkResult, CaseResult
from .harness import CASE_LABELS, Cell, ExperimentRunner, simulate_cell
from .options import RunOptions, make_run_options
from .progress import Progress
from .spec import AppSpec, make_spec

#: Process-wide defaults applied when ``run()`` arguments are ``None``.
_DEFAULTS: Dict[str, object] = {
    "parallel": 1,
    "cache": None,
    "show_progress": False,
    "start_method": None,
}


def configure(**defaults) -> Dict[str, object]:
    """Set process-wide harness defaults; returns the effective set.

    Recognized keys: ``parallel``, ``cache``, ``show_progress``,
    ``start_method``.  ``python -m repro.experiments --parallel N``
    calls this once so every registered experiment inherits the pool.
    """
    unknown = set(defaults) - set(_DEFAULTS)
    if unknown:
        raise TypeError(f"unknown configure() keys: {sorted(unknown)}")
    _DEFAULTS.update(defaults)
    return dict(_DEFAULTS)


def _default(name: str, value):
    return _DEFAULTS[name] if value is None else value


@dataclass
class RunResult(BenchmarkResult):
    """A :class:`BenchmarkResult` plus harness bookkeeping.

    ``stats`` records how the cells were obtained (simulated vs cache
    hits, wall-clock, worker count); the measured data is exactly what
    the equivalent serial run produces.
    """

    stats: Dict[str, object] = field(default_factory=dict)
    #: Case label -> ``repro.obs.TraceCollector``; populated only by
    #: ``run(trace=...)``.  Traces ride on the RunResult, never inside
    #: the CaseResults, so traced and untraced results stay identical.
    traces: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_benchmark(cls, result: BenchmarkResult,
                       stats: Optional[Dict[str, object]] = None
                       ) -> "RunResult":
        return cls(name=result.name, cases=dict(result.cases),
                   stats=dict(stats or {}))


def run(app, cases: Optional[Sequence[str]] = None, *,
        options: Optional[RunOptions] = None,
        parallel: Optional[int] = None,
        cache=None,
        seed: Optional[int] = None,
        preset: Optional[str] = None,
        overrides: Optional[dict] = None,
        name: Optional[str] = None,
        show_progress: Optional[bool] = None,
        progress: Optional[Progress] = None,
        trace=None,
        profile: bool = False,
        **params) -> RunResult:
    """Run ``app`` through the experiment harness.

    The canonical calling convention is typed (docs/api.md)::

        opts = repro.RunOptions(parallel=4, cache=True, seed=7)
        result = repro.run("grep", opts)        # or options=opts

    The bare keywords below remain supported as a thin compatibility
    wrapper — they build the same :class:`RunOptions` internally, and
    mixing an options object with loose keywords is an error.

    Parameters
    ----------
    app:
        A registered application name (``"grep"``), a ``module:Class``
        path, a :class:`~repro.apps.StreamApp` subclass, an
        :class:`AppSpec`, or a zero-argument factory callable returning
        an app instance (factories cannot be fingerprinted or pickled,
        so they always run serially and uncached).
    cases:
        Case labels to run; defaults to all four paper configurations.
        (A :class:`RunOptions` here is treated as ``options``.)
    options:
        A :class:`RunOptions` carrying every parameter below.
    parallel, cache, show_progress:
        Override the :func:`configure` defaults for this call.
    seed:
        Master-seed override applied to every case's configuration.
    preset, overrides, ``**params``:
        Forwarded to :func:`make_spec` (technology preset, flat config
        overrides, app constructor parameters).
    trace:
        ``True`` to record a structured trace per case (returned as
        ``result.traces``), or a file path to additionally write the
        merged Chrome ``trace_event`` JSON there (openable in Perfetto).
        Tracing forces serial in-process execution and bypasses the
        cache — a cache hit would skip the simulation a trace observes.
        The measured ``CaseResult``s are identical with or without
        tracing (see docs/observability.md).
    profile:
        ``True`` to run each case under :mod:`cProfile`, dumping one
        ``.pstats`` file per case next to the result cache (under
        ``<cache dir>/profiles/``).  ``result.report().profile()``
        renders the top entries; the raw paths are in
        ``result.stats["profiles"]``.  Profiling forces serial
        in-process execution and bypasses the cache, like tracing.
    progress:
        A live :class:`~repro.runner.Progress` sink (a runtime channel,
        not configuration — deliberately outside :class:`RunOptions`).
    """
    opts = make_run_options(
        options, cases, parallel=parallel, cache=cache, seed=seed,
        preset=preset, overrides=overrides, name=name,
        show_progress=show_progress, trace=trace, profile=profile,
        params=params)
    return _run_with_options(app, opts, progress=progress)


def _run_with_options(app, opts: RunOptions,
                      progress: Optional[Progress] = None) -> RunResult:
    """The typed execution path every ``run()`` call goes through."""
    overrides = dict(opts.overrides) or None
    factory = callable(app) and not isinstance(app, type)
    if factory:
        if opts.params or opts.preset or overrides:
            raise TypeError(
                "factory callables take no spec parameters; pass a "
                "registered name or application class instead")
        return _run_in_process(app, None, opts)
    spec = make_spec(app, preset=opts.preset, overrides=overrides,
                     **dict(opts.params))
    if opts.trace or opts.profile:
        return _run_in_process(None, spec, opts)

    runner = ExperimentRunner(
        parallel=_default("parallel", opts.parallel),
        cache=_default("cache", opts.cache), progress=progress,
        show_progress=_default("show_progress", opts.show_progress),
        start_method=_DEFAULTS["start_method"])  # type: ignore[arg-type]
    result = runner.run_app(spec, cases=opts.cases, seed=opts.seed,
                            name=opts.name)
    cache = runner.cache  # may be empty, hence len()==0 and falsy
    stats = {
        "parallel": runner.parallel,
        "cache_dir": str(cache.root) if cache is not None else None,
        "cache_hits": cache.hits if cache is not None else 0,
        "spec": spec,
        "options": opts,
    }
    return RunResult.from_benchmark(result, stats)


def _run_in_process(factory, spec: Optional[AppSpec],
                    opts: RunOptions) -> RunResult:
    """Serial, in-process, uncached: factory, traced and profiled runs.

    One loop over the cases.  A factory builds a fresh app per case; a
    spec's app comes from the per-process cache, exactly as in the
    harness, and every case runs through the harness's cell body
    (:func:`~repro.runner.harness.simulate_cell`) with the optional
    observers: one ``TraceCollector`` per case when ``opts.trace`` is
    set, one ``cProfile`` per case (dumped as pstats next to the result
    cache) when ``opts.profile`` is.
    """
    import cProfile

    from ..cluster.template import cached_app
    from ..obs.export import write_chrome_trace
    from ..obs.trace import TraceCollector
    from .cache import default_cache_dir

    stats: Dict[str, object] = {"parallel": 1, "cache_dir": None,
                                "cache_hits": 0, "spec": spec}
    traces: Dict[str, object] = {}
    profiles: Dict[str, str] = {}
    if opts.profile:
        profile_dir = default_cache_dir() / "profiles"
        profile_dir.mkdir(parents=True, exist_ok=True)

    results: Dict[str, CaseResult] = {}
    app_name = opts.name
    for label in CASE_LABELS if opts.cases is None else opts.cases:
        app = factory() if factory is not None else cached_app(spec)
        if app_name is None:
            app_name = app.name
        # A factory's app carries its own configuration: a bare spec's
        # base config is exactly ``app.cluster_config()``.
        cell = Cell(spec=spec if factory is None else AppSpec(app.name),
                    case=label, seed=opts.seed)
        trace = TraceCollector() if opts.trace else None
        profiler = cProfile.Profile() if opts.profile else None
        results[label] = simulate_cell(cell, app, trace, profiler)[0]
        if trace is not None:
            traces[label] = trace
        if profiler is not None:
            path = profile_dir / f"{app_name}-{label}.pstats"
            profiler.dump_stats(path)
            profiles[label] = str(path)

    if opts.trace:
        stats["trace_path"] = None
        if not isinstance(opts.trace, bool):
            stats["trace_path"] = os.fspath(opts.trace)
            write_chrome_trace(stats["trace_path"], traces)
    if opts.profile:
        stats["profiles"] = profiles
    return RunResult(name=app_name or "benchmark", cases=results,
                     stats=stats, traces=traces)


def run_many(specs: Sequence, *,
             parallel: Optional[int] = None,
             cache=None,
             cases: Optional[Sequence[str]] = None,
             seeds: Sequence[Optional[int]] = (None,),
             show_progress: Optional[bool] = None,
             progress: Optional[Progress] = None) -> Dict[str, RunResult]:
    """Run several applications through one shared pool.

    ``specs`` items pass through :func:`make_spec`; the return maps each
    spec's label to its :class:`RunResult`.  With multiple ``seeds`` the
    key becomes ``"label#seed"``.
    """
    parallel = _default("parallel", parallel)
    cache = _default("cache", cache)
    show_progress = _default("show_progress", show_progress)
    resolved = [make_spec(spec) if not isinstance(spec, AppSpec) else spec
                for spec in specs]
    runner = ExperimentRunner(
        parallel=parallel, cache=cache, progress=progress,
        show_progress=show_progress,
        start_method=_DEFAULTS["start_method"])  # type: ignore[arg-type]
    grid = runner.run_grid(resolved, cases=cases, seeds=seeds)
    out: Dict[str, RunResult] = {}
    for (label, seed), bench in grid.items():
        key = label if seed is None and len(tuple(seeds)) == 1 else \
            f"{label}#{seed}"
        out[key] = RunResult.from_benchmark(bench, {
            "parallel": runner.parallel,
            "cache_dir": (str(runner.cache.root)
                          if runner.cache is not None else None),
            "seed": seed,
        })
    return out
