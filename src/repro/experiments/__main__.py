"""Run every experiment and print its paper-vs-measured ledger.

::

    python -m repro.experiments              # all, at default scales
    python -m repro.experiments fig09_10_grep table1
    python -m repro.experiments ablation_cut_through ablation_clock_ratio
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

from .registry import all_experiments, get
from .report_generator import run_and_render, write_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--scale", type=float, default=None,
                        help="override workload scale (1.0 = paper "
                             "sizes); entries with fixed inputs run "
                             "without one")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write measured metrics and check "
                             "outcomes as JSON")
    parser.add_argument("--markdown", metavar="PATH", default=None,
                        help="write the full generated markdown report "
                             "and exit")
    parser.add_argument("--parallel", type=int, default=None, metavar="N",
                        help="fan experiment cells across N worker "
                             "processes (results identical to serial)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="reuse/store per-cell results in DIR")
    args = parser.parse_args(argv)

    harness = {key: value for key, value in (("parallel", args.parallel),
                                             ("cache", args.cache))
               if value is not None}
    if harness:
        from ..runner.api import configure
        configure(**harness)

    if args.markdown:
        write_report(args.markdown, scale=args.scale,
                     experiment_ids=args.experiments or None)
        print(f"wrote {args.markdown}")
        return 0

    chosen = ([get(eid) for eid in args.experiments]
              if args.experiments else all_experiments())
    collected = {}
    for experiment in chosen:
        print(run_and_render(experiment, scale=args.scale,
                             collect=collected if args.json else None))
        print()
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(collected, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
