"""End-to-end benchmark of the simulator: one workload per process.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload paper_grid --seed 0
    python3 benchmarks/e2e/run.py --workload serve_active --seed 0 --trace 1
    python3 benchmarks/e2e/run.py --repeat-check --out DIR

A run imports the simulator and builds the workload's inputs three
times (``setup_s``), makes one untimed warm-up pass, then times enough
passes to fill ``--seconds``, timing a fixed pure-Python reference
slice before each pass and after each op (``wall_rel``).  Every pass's
outputs are checked.  With ``--trace 1`` the timed passes are replaced
by one pass under the layer wrappers of ``layers.py``, which yields the
per-layer metrics; the end-to-end numbers are therefore always measured
with tracing off.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the ``end_to_end`` (``--trace 0``) or ``per_layer``
(``--trace 1``) metrics that BENCHMARK.json declares, each with its
unit.  Any failed check makes the exit status non-zero.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import layers
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-up repetitions behind the ``setup_s`` median.
SETUP_BUILDS = 3
#: Fewest timed passes a run makes, however long one pass takes.
MIN_PASSES = 2
#: Iterations of one reference slice (about 20 ms of CPython work).
REFERENCE_ITERS = 16_000
#: Environment flags that switch the simulator onto alternate paths.
SIM_FLAGS = ("REPRO_SIM_PERBLOCK", "REPRO_SIM_FLUID", "REPRO_MEM_PERLINE")
#: Where the traced run writes its Perfetto file (inside the checkout).
TRACE_DIR = ROOT / ".bench_build" / "e2e-traces"


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_simulator() -> float:
    """Import the simulator from ``src/``; returns the import seconds."""
    for flag in SIM_FLAGS:
        os.environ.pop(flag, None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import repro
    import workloads  # noqa: F401  (imports the experiments registry)
    elapsed = time.perf_counter() - started
    if src not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro was imported from {repro.__file__}, "
                          f"not from this checkout")
    return elapsed


class _Counter:
    __slots__ = ("hits",)

    def __init__(self):
        self.hits = 0

    def touch(self, amount):
        self.hits += amount
        return self.hits


def _ticker():
    total = 0
    while True:
        total += yield total


def reference_slice() -> float:
    """Seconds taken by a fixed slice of pure-Python work shaped like the
    simulator's inner loops (dict lookups, heap traffic, method calls on
    slotted objects, generator resumes): the host-speed yardstick that
    ``wall_rel`` divides pass walls by.  It shares no code with the
    simulator, so a simulator change cannot move it."""
    started = time.perf_counter()
    counters = [_Counter() for _ in range(1024)]
    ticker = _ticker()
    next(ticker)
    heap, table, acc = [], {}, 0
    for i in range(REFERENCE_ITERS):
        key = (i * 7919) & 4095
        acc = (acc + table.get(key, i)
               + counters[key & 1023].touch(i & 7)) & 0xFFFFFFFF
        table[key] = acc
        heapq.heappush(heap, (acc, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        ticker.send(1)
    return time.perf_counter() - started


class Checker:
    """Counts attempted and failed ops across every pass of a run."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference  # committed digests, or None
        self.baseline = None  # digests of the first pass
        self.attempted = 0
        self.failed = 0

    def check(self, outputs, errors) -> dict:
        """Verify one pass; returns its digests."""
        digests = {name: (verify.digest(out) if out is not None else None)
                   for name, out in outputs.items()}
        problems = {name: list(msgs) for name, msgs in errors.items()}
        for name, msgs in self.workload.violations(outputs).items():
            problems.setdefault(name, []).extend(msgs)
        for name, value in digests.items():
            if self.reference is not None and \
                    self.reference.get(name) != value:
                problems.setdefault(name, []).append(
                    "digest differs from the committed reference")
            if self.baseline is not None and self.baseline.get(name) != value:
                problems.setdefault(name, []).append(
                    "digest differs from the first pass")
        if self.baseline is None:
            self.baseline = digests
        self.attempted += len(outputs)
        self.failed += len(problems)
        for name, msgs in sorted(problems.items()):
            for msg in msgs:
                print(f"FAIL {self.workload.name} {name}: {msg}",
                      file=sys.stderr)
        return digests


def run_pass(ops, span=None, yardstick=None):
    """Run every op once; returns (outputs, per-op walls, errors).

    An op's wall includes collecting the cyclic garbage it leaves
    behind (simulations leave hundreds of thousands of objects in event
    and generator cycles), so no op is billed for its predecessor's
    garbage.  With a ``yardstick`` list, a reference slice is timed
    before the first op and after each op, outside the op timings, so
    the slices sample the host's speed across the same interval as the
    pass.
    """
    outputs, walls, errors = {}, {}, {}
    if yardstick is not None:
        yardstick.append(reference_slice())
    for op in ops:
        started = time.perf_counter()
        try:
            if span is None:
                outputs[op.name] = op.run()
            else:
                with span(op.name):
                    outputs[op.name] = op.run()
        except Exception:
            outputs[op.name] = None
            errors[op.name] = [traceback.format_exc()]
        gc.collect()
        walls[op.name] = time.perf_counter() - started
        if yardstick is not None:
            yardstick.append(reference_slice())
    return outputs, walls, errors


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def freeze_inputs() -> None:
    """Move everything alive after set-up (modules, built inputs) out of
    the cyclic collector's reach, so a pass's collections scan only what
    the pass itself allocates."""
    gc.collect()
    gc.freeze()


def measure(workload, seed: int, seconds: float, checker: Checker) -> dict:
    """Set-up, warm-up and timed passes; returns every measured value."""
    build_s = []
    for _ in range(SETUP_BUILDS):
        inputs = None
        gc.collect()
        started = time.perf_counter()
        inputs = workload.build(seed)
        build_s.append(time.perf_counter() - started)
    freeze_inputs()
    ops = workload.ops(inputs)
    outputs, walls, errors = run_pass(ops)
    checker.check(outputs, errors)
    warm_s = sum(walls.values())
    passes = max(MIN_PASSES, round(seconds / warm_s))
    pass_s, rel, overheads, paper = [], [], [], None
    op_walls, slices = [], []
    for _ in range(passes):
        outputs = None
        yardstick = []
        outputs, walls, errors = run_pass(ops, yardstick=yardstick)
        checker.check(outputs, errors)
        pass_s.append(sum(walls.values()))
        # Each op against the host speed sampled on either side of it.
        rel.append(sum(wall / ((before + after) / 2) for wall, before, after
                       in zip(walls.values(), yardstick, yardstick[1:])))
        op_walls.append(walls)
        slices.append(yardstick)
        overhead = workload.trace_overhead(walls)
        if overhead is not None:
            overheads.append(overhead)
        if paper is None and not errors:
            paper = workload.paper_error(outputs)
    return {"build_s": build_s, "warm_s": warm_s, "pass_s": pass_s,
            "rel": rel, "overheads": overheads, "paper": paper,
            "op_walls": op_walls, "slices": slices,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def measure_traced(workload, seed: int, checker: Checker) -> dict:
    """One untraced pass, then set-up plus one pass under the wrappers."""
    from repro.cluster.template import template_stats

    inputs = workload.build(seed)
    freeze_inputs()
    outputs, walls, errors = run_pass(workload.ops(inputs))
    checker.check(outputs, errors)
    untraced_s = sum(walls.values())
    inputs = outputs = None
    gc.collect()

    rec = layers.Recorder()
    stats_before = template_stats()
    totals = {}

    @contextmanager
    def span(name):
        with rec.span(layers.OP, name):
            yield
        layers.take_census(rec, totals)

    with layers.instrument(rec):
        with rec.span(layers.OP, "setup"):
            inputs = workload.build(seed)
        rec.census.clear()
        freeze_inputs()
        outputs, walls, errors = run_pass(workload.ops(inputs), span)
    stats_after = template_stats()
    checker.check(outputs, errors)
    op_ns = sum(end - start for _, parent, start, end, *_ in rec.spans
                if parent == 0)
    metrics = layers.layer_metrics(rec, totals, op_ns)
    traced_s = sum(walls.values())
    metrics["trace.overhead_x"] = traced_s / untraced_s
    metrics.update(_output_counters(outputs, stats_before, stats_after))

    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = TRACE_DIR / f"{workload.name}-seed{seed}.json"
    layers.write_perfetto(rec, trace_path, {"workload": workload.name,
                                            "seed": seed})
    return {"metrics": metrics,
            "trace_file": str(trace_path.relative_to(ROOT)),
            "untraced_s": untraced_s, "traced_s": traced_s,
            "kept_spans": len(rec.spans), "dropped_spans": rec.dropped}


def _output_counters(outputs, before, after) -> dict:
    """Per-layer counts read from the ops' public results."""
    from repro.metrics.results import CaseResult
    from repro.traffic import KneeSearch

    services = [r for out in outputs.values() if out is not None
                for r in verify.service_results(out)]
    offered = sum(r.offered for r in services)
    admitted = sum(r.admitted for r in services)
    extras = [out.extra for out in outputs.values()
              if isinstance(out, CaseResult)] + [r.extra for r in services]
    hits = sum(after[k] - before[k] for k in after if k.endswith("_hits"))
    misses = sum(after[k] - before[k] for k in after if k.endswith("_misses"))
    return {
        "traffic.offered": offered,
        "traffic.admitted": admitted,
        "traffic.dropped": sum(r.dropped for r in services),
        "traffic.admit_ratio": admitted / offered if offered else 1.0,
        "traffic.queue_delay_p99_us": max(
            (r.queue_delay_us.get("p99") or 0.0 for r in services),
            default=0.0),
        "faults.retries": sum(extra.get(key, 0) for extra in extras
                              for key in ("disk_retries", "scsi_retries",
                                          "link_retransmits")),
        "runner.knee_sims": sum(out.sims for out in outputs.values()
                                if isinstance(out, KneeSearch)),
        "runner.template_hit_ratio": (hits / (hits + misses)
                                      if hits + misses else 0.0),
    }


def end_to_end(raw: dict, import_s: float) -> dict:
    return {
        "wall_s": statistics.median(raw["pass_s"]),
        "wall_rel": statistics.median(raw["rel"]),
        "setup_s": import_s + statistics.median(raw["build_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def report(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<28} {text:>14} {unit:<8} {note}".rstrip())


def run_one(args, declaration) -> int:
    try:
        import_s = import_simulator()
    except ImportError as exc:
        print(f"error: cannot import the simulator from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    checker = Checker(workload, None if args.update_reference
                      else verify.load_reference(workload.name, args.seed))
    why = {w["name"]: w["why"] for w in declaration["workloads"]}
    print(f"{workload.name} seed={args.seed}: {why[workload.name]}")
    if args.trace:
        raw = measure_traced(workload, args.seed, checker)
        values = raw["metrics"]
        declared = declaration["per_layer"]
        print(f"traced pass {raw['traced_s']:.3f} s vs untraced "
              f"{raw['untraced_s']:.3f} s; {raw['kept_spans']} spans kept "
              f"-> {raw['trace_file']}")
    else:
        raw = measure(workload, args.seed, args.seconds, checker)
        values = end_to_end(raw, import_s)
        declared = declaration["end_to_end"]
        q1, q3 = quartiles(raw["pass_s"])
        print(f"import {import_s:.3f} s, builds "
              + ", ".join(f"{b:.3f}" for b in raw["build_s"])
              + f" s; warm-up {raw['warm_s']:.3f} s; {len(raw['pass_s'])} "
              f"timed passes, wall IQR {q1:.3f}-{q3:.3f} s")
        if raw["paper"] is not None:
            values["paper_err_pct"], compared = raw["paper"]
            print(f"paper_err_pct over {compared} paper-quoted values")
        if raw["overheads"]:
            values["trace_overhead_x"] = statistics.median(raw["overheads"])
    values["failed_frac"] = checker.failed / max(checker.attempted, 1)
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in values.items():
        report(name, value, units.get(name, ""),
               "" if name in units else "(printed only)")
    missing = [name for name in units if name not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "trace": args.trace, "python": sys.version.split()[0],
                       "all_metrics": values, "raw": raw, **result},
                      fh, indent=1, default=str)
            fh.write("\n")
    if args.update_reference and result["correct"]:
        path = verify.store_reference(workload.name, args.seed,
                                      checker.baseline)
        print(f"reference digests for seed {args.seed} -> "
              f"{path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def repeat_check(args, declaration) -> int:
    """Two full sets of runs, back to back; each end-to-end metric's
    relative spread between the sets, next to its bound."""
    out_dir = Path(args.out) if args.out else None
    sets = []
    for set_name in ("a", "b"):
        results = {}
        for workload in declaration["workloads"]:
            name = workload["name"]
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            if out_dir is not None:
                cmd += ["--out", str(out_dir / f"set_{set_name}"
                                     / f"{name}.json")]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = done.stdout.strip().splitlines()
            results[name] = json.loads(lines[-1]) if lines else None
            print(f"set {set_name} {name}: exit {done.returncode}",
                  flush=True)
        sets.append(results)
    rows, ok = [], True
    for workload in declaration["workloads"]:
        name = workload["name"]
        a, b = sets[0][name], sets[1][name]
        for metric in declaration["end_to_end"]:
            if a is None or b is None:
                ok = False
                continue
            va = a["metrics"][metric["name"]]["value"]
            vb = b["metrics"][metric["name"]]["value"]
            spread = abs(vb - va) / va
            within = spread <= metric["bound"]
            ok = ok and within and a["correct"] and b["correct"]
            rows.append({"workload": name, "metric": metric["name"],
                         "a": va, "b": vb, "spread": spread,
                         "bound": metric["bound"], "within": within})
    print(f"{'workload':<14} {'metric':<12} {'set a':>10} {'set b':>10} "
          f"{'spread':>8} {'bound':>6}")
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<12} {row['a']:>10.4f} "
              f"{row['b']:>10.4f} {row['spread']:>8.2%} {row['bound']:>6.0%}"
              f"{'' if row['within'] else '  OUT OF BOUND'}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "repeat_check.json", "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "rows": rows, "ok": ok}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/e2e/run.py",
        description="End-to-end benchmark of the simulator.")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=declaration["run_seconds"],
                        help="how long the timed passes should take")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--out", default=None,
                        help="write the full result document here (with "
                             "--repeat-check: a directory)")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run every workload twice and compare")
    parser.add_argument("--update-reference", action="store_true",
                        help="record this seed's output digests as the "
                             "committed reference")
    args = parser.parse_args(argv)
    if args.repeat_check:
        return repeat_check(args, declaration)
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
