"""Run every experiment and print the paper-vs-measured report.

::

    python -m repro.experiments              # all, at default scales
    python -m repro.experiments fig09_10_grep table1
    python -m repro.experiments --scale 0.25 fig03_04_mpeg
    python -m repro.experiments --parallel 4 --cache .repro-cache

``--parallel`` and ``--cache`` configure the experiment harness
(:mod:`repro.runner`) process-wide, so every four-case experiment fans
its cells across the worker pool and reuses cached results; outputs are
bit-identical to the serial path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..metrics.report import (
    breakdown_table,
    comparison_table,
    performance_table,
    rows_table,
)
from ..metrics.results import BenchmarkResult
from .registry import all_experiments, compare, get


def run_one(experiment, scale=None, collect=None) -> str:
    """Run and render one experiment.

    ``collect``, if given, receives the measured metrics keyed by
    experiment id (for --json output) without re-running anything.
    """
    chosen_scale = experiment.default_scale if scale is None else scale
    start = time.time()
    result = experiment.run(chosen_scale)
    elapsed = time.time() - start
    if collect is not None:
        collect[experiment.experiment_id] = {
            "title": experiment.title,
            "scale": chosen_scale,
            "paper": experiment.paper,
            "measured": experiment.measured(result),
        }
    sections = [f"== {experiment.title} (scale={chosen_scale:g}, "
                f"{elapsed:.1f}s) =="]
    if isinstance(result, BenchmarkResult):
        sections.append(performance_table(result))
        sections.append(breakdown_table(result))
    elif isinstance(result, dict) and all(
            isinstance(v, BenchmarkResult) for v in result.values()):
        for key, sub in result.items():
            sections.append(f"-- variant {key} --")
            sections.append(performance_table(sub))
    elif isinstance(result, list) and result and isinstance(result[0], dict):
        sections.append(rows_table(result))
    sections.append(comparison_table(experiment.experiment_id,
                                     compare(experiment, result)))
    if experiment.notes:
        sections.append(f"note: {experiment.notes}")
    return "\n\n".join(sections)


def run_ablations() -> str:
    """Run every ablation study and format the results."""
    from . import ablations

    sections = ["== Ablation studies (DESIGN.md section 7) =="]

    times = ablations.ablate_cut_through(scale=0.5)
    sections.append(
        "cut-through (grep, active): "
        f"{times['cut-through'] / 1e9:.2f} ms with valid-bit overlap vs "
        f"{times['store-and-forward'] / 1e9:.2f} ms store-and-forward "
        f"({times['overlap benefit']:.2f}x)")

    rows = ablations.ablate_buffer_count()
    sections.append("data buffers (8-way leaf reduction): " + ", ".join(
        f"{r['buffers']}->{r['latency_us']:.1f}us" for r in rows))

    rows = ablations.ablate_clock_ratio()
    sections.append("switch clock (MD5, 1 CPU, a+p speedup): " + ", ".join(
        f"{r['freq_mhz']:.0f}MHz->{r['speedup']:.2f}x" for r in rows))

    rows = ablations.ablate_prefetch_depth()
    sections.append("prefetch depth (select, normal): " + ", ".join(
        f"d{r['depth']}->{r['exec_ms']:.1f}ms" for r in rows))

    result = ablations.ablate_noninterference()
    sections.append(
        f"non-interference: forwarding {result['quiet_us']:.3f} us quiet, "
        f"{result['loaded_us']:.3f} us under active load "
        f"({result['slowdown']:.3f}x)")

    result = ablations.ablate_filter_placement()
    sections.append(
        f"filter placement: 1 switch CPU filtering "
        f"{result['streams']:.0f} disk streams at "
        f"{result['switch_cpu_busy_frac']:.1%} utilization "
        f"({'disk-bound' if result['disk_bound'] else 'CPU-bound'})")

    return "\n".join(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--scale", type=float, default=None,
                        help="override workload scale (1.0 = paper sizes)")
    parser.add_argument("--ablations", action="store_true",
                        help="also run the design-choice ablation studies")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write measured metrics as JSON")
    parser.add_argument("--markdown", metavar="PATH", default=None,
                        help="write the full generated markdown report "
                             "and exit")
    parser.add_argument("--parallel", type=int, default=None, metavar="N",
                        help="fan experiment cells across N worker "
                             "processes (results identical to serial)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="reuse/store per-cell results in DIR")
    args = parser.parse_args(argv)

    if args.parallel is not None or args.cache is not None:
        from ..runner.api import configure
        harness = {}
        if args.parallel is not None:
            harness["parallel"] = args.parallel
        if args.cache is not None:
            harness["cache"] = args.cache
        configure(**harness)

    if args.markdown:
        from .report_generator import write_report
        write_report(args.markdown, scale=args.scale,
                     experiment_ids=args.experiments or None)
        print(f"wrote {args.markdown}")
        return 0

    chosen = ([get(eid) for eid in args.experiments]
              if args.experiments else all_experiments())
    collected = {}
    if not (args.ablations and args.experiments == []):
        for experiment in chosen:
            print(run_one(experiment, scale=args.scale,
                          collect=collected if args.json else None))
            print()
    if args.ablations:
        print(run_ablations())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(collected, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
