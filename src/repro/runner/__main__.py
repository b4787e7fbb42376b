"""Command-line front end for the experiment harness.

Runs the paper's nine-application grid (or a subset) through the
process pool and prints each benchmark's report::

    python -m repro.runner --parallel 4 --cache .repro-cache
    python -m repro.runner --apps grep,select --scale 0.25 --json
    python -m repro.runner --baseline-check --parallel 2 --cache dir

``--baseline-check`` re-runs the same grid serially (cold, uncached)
afterwards and exits non-zero if the parallel+cache pass was not
faster — the CI regression gate for the harness itself.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .api import RunResult
from .harness import CASE_LABELS, ExperimentRunner
from .progress import make_progress
from .spec import DEFAULT_SCALES, make_spec, paper_grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Run the paper's experiment grid through the "
                    "parallel harness.")
    parser.add_argument("--apps", default=None,
                        help="comma-separated registered app names "
                             "(default: the full nine-spec paper grid)")
    parser.add_argument("--cases", default=None,
                        help="comma-separated case labels "
                             f"(default: {','.join(CASE_LABELS)})")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale factor multiplying each "
                             "app's default scale")
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="worker processes (default: 1 = serial)")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="result cache directory (enables caching)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed override for every cell")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of tables")
    parser.add_argument("--trace", action="store_true",
                        help="record structured traces (forces serial, "
                             "uncached execution; prints terminal "
                             "timelines unless --json)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the merged Chrome trace_event JSON "
                             "(Perfetto-loadable) to FILE; implies --trace")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    parser.add_argument("--baseline-check", action="store_true",
                        help="after the run, measure an uncached serial "
                             "pass and fail if the harness was slower")
    return parser


def _select_specs(args):
    if args.apps is None:
        return paper_grid(scale=args.scale)
    factor = 1.0 if args.scale is None else args.scale
    specs = []
    for name in args.apps.split(","):
        name = name.strip()
        specs.append(make_spec(
            name, scale=DEFAULT_SCALES.get(name, 1.0) * factor))
    return tuple(specs)


def _run_grid(specs, cases, seed, runner, progress):
    seeds = (seed,)
    grid = runner.run_grid(specs, cases=cases, seeds=seeds)
    return {label: bench for (label, _), bench in grid.items()}


def _trace_grid(specs, cases, seed):
    """Serial traced pass: one RunResult per spec plus merged collectors.

    The merged mapping keys are ``"app/case"`` so every traced cell gets
    its own Perfetto process track in the single exported document.
    """
    from .api import run as run_api
    grid = {}
    merged = {}
    for spec in specs:
        result = run_api(spec, cases=cases, seed=seed, trace=True)
        grid[spec.label] = result
        for case_label, collector in result.traces.items():
            merged[f"{spec.label}/{case_label}"] = collector
    return grid, merged


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    specs = _select_specs(args)
    cases = (tuple(c.strip() for c in args.cases.split(","))
             if args.cases else None)
    n_cases = len(cases) if cases else len(CASE_LABELS)
    progress = make_progress(len(specs) * n_cases, show=not args.quiet)
    runner = ExperimentRunner(parallel=args.parallel, cache=args.cache,
                              progress=progress)

    tracing = args.trace or args.trace_out is not None
    if tracing and args.parallel > 1:
        print("note: tracing forces serial execution; --parallel ignored",
              file=sys.stderr)

    started = time.perf_counter()
    if tracing:
        grid, traces = _trace_grid(specs, cases, args.seed)
        if args.trace_out:
            from ..obs.export import write_chrome_trace
            document = write_chrome_trace(args.trace_out, traces)
            print(f"trace: {len(document['traceEvents'])} events -> "
                  f"{args.trace_out}", file=sys.stderr)
    else:
        grid = _run_grid(specs, cases, args.seed, runner, progress)
    harness_s = time.perf_counter() - started

    if args.json:
        payload = {
            "grid": {label: {case: result.summary()[case]
                             for case in result.cases}
                     for label, result in grid.items()},
            "harness": dict(progress.summary(), wall_s=harness_s,
                            parallel=args.parallel,
                            cache=args.cache),
        }
    else:
        from ..metrics.report import Report
        for label, bench in grid.items():
            report = Report(bench)
            print(report.performance())
            print()
            if tracing and args.trace:
                timeline = report.timeline()
                if timeline:
                    print(timeline)
                    print()
        if tracing:
            print(f"grid: {len(grid)} specs traced serially, "
                  f"{harness_s:.1f}s wall", file=sys.stderr)
        else:
            summary = progress.summary()
            print(f"grid: {summary['cells']} cells, "
                  f"{summary['cache_hits']} cache hits, "
                  f"{summary['simulated']} simulated, "
                  f"{harness_s:.1f}s wall", file=sys.stderr)

    if args.baseline_check:
        serial = ExperimentRunner(parallel=1, cache=None)
        base_start = time.perf_counter()
        baseline = _run_grid(specs, cases, args.seed, serial,
                             make_progress(progress.total, show=False))
        baseline_s = time.perf_counter() - base_start
        mismatches = [label for label in grid
                      if grid[label].cases != baseline[label].cases]
        ok = not mismatches and harness_s <= baseline_s
        verdict = {
            "baseline_s": baseline_s,
            "harness_s": harness_s,
            "speedup": baseline_s / harness_s if harness_s else None,
            "identical": not mismatches,
            "mismatches": mismatches,
            "ok": ok,
        }
        if args.json:
            payload["baseline_check"] = verdict
        else:
            print(f"baseline check: serial {baseline_s:.1f}s vs harness "
                  f"{harness_s:.1f}s ({verdict['speedup']:.2f}x), "
                  f"identical={verdict['identical']}", file=sys.stderr)
        if not ok:
            if args.json:
                print(json.dumps(payload, indent=2))
            if mismatches:
                print(f"FAIL: results differ from serial baseline for "
                      f"{mismatches}", file=sys.stderr)
            else:
                print("FAIL: harness run was slower than the serial "
                      "baseline", file=sys.stderr)
            return 1

    if args.json:
        print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
