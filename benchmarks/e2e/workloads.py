"""The four benchmark workloads.

Each workload builds its inputs from the seed (:meth:`Workload.build`,
timed as set-up), then exposes a pass as a list of :class:`Op` — one
simulation each, driven only through the simulator's public entry
points: ``AppSpec.build`` / ``StreamApp.run_case``, ``repro.serve``,
``repro.find_knee`` and the ``repro.experiments`` registry.  Ops look
every simulator callable up at call time (``repro.serve``, not a bound
name) so the traced run's wrappers see them.

Why these four (README.md has the full rationale):

* ``paper_grid`` — the paper-reproduction job; the memory model does
  most of the work.
* ``fabric_reduce`` — the only workload whose packets cross real links,
  routing tables and switch dispatch.
* ``serve_active`` — open-loop serving on the burst path; the memory
  model is idle, so a memory-model change must not move it.
* ``traced_chaos`` — tracing and fault injection, which today switch the
  simulator onto the per-block cascade path the others bypass.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
import repro.cluster.template
import repro.experiments
import repro.experiments.service_slo
import repro.runner

from verify import digest, service_violations


@dataclass
class Op:
    """One simulation of a pass."""

    name: str
    run: Callable[[], object]


class Workload:
    """A named input set: ``build`` once, then run ``ops`` per pass."""

    name = ""

    def build(self, seed: int):
        """Generate the inputs (the timed set-up)."""
        raise NotImplementedError

    def ops(self, inputs) -> List[Op]:
        raise NotImplementedError

    def violations(self, outputs: Dict[str, object]) -> Dict[str, List[str]]:
        """Invariant failures of one pass, keyed by op name."""
        return {}

    def paper_error(self, outputs: Dict[str, object]
                    ) -> Optional[Tuple[float, int]]:
        """(mean relative error in %, values compared) against the
        registry's non-zero paper-quoted values, or None."""
        return None

    def trace_overhead(self, walls: Dict[str, float]) -> Optional[float]:
        """Simulator-tracing cost of one pass (traced / untraced wall)."""
        return None


def _cell_ops(cells) -> List[Op]:
    return [Op(name, lambda app=app, config=config: app.run_case(config))
            for name, app, config in cells]


def _cells(spec, cases: Sequence[str], seed: int, label: str = ""):
    """(op name, app, config) per case; names default to the spec label
    and must not depend on the seed, so references line up."""
    app = spec.build()
    return [(f"{label or spec.label}/{case}", app, repro.runner.cell_config(
                repro.runner.Cell(spec=spec, case=case, seed=seed), app))
            for case in cases]


def _paper_error(pairs) -> Tuple[float, int]:
    """Mean |measured - paper| / |paper| over non-zero paper values."""
    errors = []
    for experiment, result in pairs:
        measured = experiment.measured(result)
        for metric, paper in experiment.paper.items():
            if paper:
                errors.append(abs(measured[metric] - paper) / abs(paper))
    return 100.0 * statistics.fmean(errors), len(errors)


# ----------------------------------------------------------------------
# paper_grid
# ----------------------------------------------------------------------
#: Paper figure of each single-configuration grid app.
_FIGURES = {"mpeg": "fig03_04_mpeg", "hashjoin": "fig05_06_hashjoin",
            "select": "fig07_08_select", "grep": "fig09_10_grep",
            "tar": "fig11_12_tar", "sort": "fig13_14_sort"}


class PaperGrid(Workload):
    name = "paper_grid"

    def build(self, seed):
        # The paper's datasets are fixed; the seed only sets
        # ClusterConfig.seed, which has no effect on a fault-free run.
        return [cell for spec in repro.paper_grid()
                for cell in _cells(spec, repro.runner.CASE_LABELS, seed)]

    def ops(self, inputs):
        return _cell_ops(inputs)

    def paper_error(self, outputs):
        from repro.metrics.results import BenchmarkResult

        grouped: Dict[str, Dict[str, object]] = {}
        for name, result in outputs.items():
            label, _, case = name.rpartition("/")
            grouped.setdefault(label, {})[case] = result
        md5 = {}
        pairs = []
        for spec in repro.paper_grid():
            result = BenchmarkResult(name=spec.label,
                                     cases=grouped[spec.label])
            if spec.app == "md5":
                md5[dict(spec.params).get("num_switch_cpus", 1)] = result
            else:
                pairs.append((repro.experiments.get(_FIGURES[spec.app]),
                              result))
        pairs.append((repro.experiments.get("fig17_md5_multicpu"), md5))
        return _paper_error(pairs)


# ----------------------------------------------------------------------
# fabric_reduce
# ----------------------------------------------------------------------
_REDUCTION_FIGURES = ("fig15_reduce_to_one", "fig16_distributed_reduce")
_PLACEMENTS = ("per_level", "root_only")


class FabricReduce(Workload):
    name = "fabric_reduce"

    def build(self, seed):
        figures = [repro.experiments.get(eid) for eid in _REDUCTION_FIGURES]
        cells = []
        for placement in _PLACEMENTS:
            spec = repro.make_spec("reduce", topology="tree", hosts=1024,
                                   placement=placement, data_seed=seed)
            cells += _cells(spec, ("normal", "active"), seed,
                            label=f"tree1024:{placement}")
        return figures, cells

    def ops(self, inputs):
        figures, cells = inputs
        return [Op(experiment.experiment_id,
                   lambda e=experiment: e.run(scale=e.default_scale))
                for experiment in figures] + _cell_ops(cells)

    def violations(self, outputs):
        # The normal case is the MST software baseline, which no
        # placement policy touches.  (Every run also checks its
        # reduction result against the host oracle and raises on a
        # mismatch, which fails the op.)
        baselines = {name: digest(result) for name, result in outputs.items()
                     if name.endswith("/normal") and result is not None}
        if len(set(baselines.values())) > 1:
            return {name: ["normal-case baseline differs across placements"]
                    for name in baselines}
        return {}

    def paper_error(self, outputs):
        return _paper_error((repro.experiments.get(eid), outputs[eid])
                            for eid in _REDUCTION_FIGURES)


# ----------------------------------------------------------------------
# serve_active / traced_chaos
# ----------------------------------------------------------------------
#: Poisson offered loads (requests/s); 32k is past the knee and drops.
POISSON_RPS = (8000.0, 16000.0, 24000.0, 32000.0)
BURSTY_RPS = 16000.0
#: The knee search keeps ext_service_slo's own probe length.
KNEE_POINT_S = 0.02


def service_spec(seed: int, rate: float, duration: float,
                 arrival: str = "poisson"):
    """The ``ext_service_slo`` active configuration on the 16-host fat
    tree: ``service_2003`` storage, four switch CPUs, a 1 ms p99 SLO."""
    return repro.ServiceSpec(
        app="grep", case="active", arrival=arrival, rate_rps=rate,
        duration_s=duration, num_streams=64, num_keys=256, depth=128,
        policy="drop", workers=32, topology="fat_tree", hosts=16,
        preset="service_2003", overrides=(("num_switch_cpus", 4),),
        seed=seed, slo_ms=repro.experiments.service_slo.SLO_MS)


def _service_inputs(seed: int, point_s: float):
    points = [(f"poisson@{rate:g}", service_spec(seed, rate, point_s))
              for rate in POISSON_RPS]
    points.append((f"bursty@{BURSTY_RPS:g}",
                   service_spec(seed, BURSTY_RPS, point_s, "bursty")))
    knee = service_spec(seed, repro.experiments.service_slo.RATES[0],
                        KNEE_POINT_S)
    # Warm the per-process template caches (built app, fabric hop walk)
    # that every serve() call then shares: this is the service input.
    template = repro.cluster.template
    template.clear_templates()
    template.cached_service_app(knee)
    template.client_hops(knee.topology, knee.hosts)
    return points, knee


def _knee(spec, evaluate=None):
    return repro.find_knee(spec, repro.experiments.service_slo.RATES,
                           evaluate=evaluate)


def _service_violations(outputs):
    found = {name: list(service_violations(name, output))
             for name, output in outputs.items()}
    return {name: errors for name, errors in found.items() if errors}


class ServeActive(Workload):
    name = "serve_active"

    def build(self, seed):
        return _service_inputs(seed, point_s=1.0)

    def ops(self, inputs):
        points, knee = inputs
        return [Op(name, lambda spec=spec: repro.serve(spec))
                for name, spec in points] + [Op("knee", lambda: _knee(knee))]

    def violations(self, outputs):
        return _service_violations(outputs)


TRACED = "/traced"


def _traced_serve(spec):
    return repro.serve(spec, trace=repro.TraceCollector())


class TracedChaos(Workload):
    name = "traced_chaos"

    def build(self, seed):
        points, knee = _service_inputs(seed, point_s=0.1)
        cells = []
        for spec in repro.paper_grid():
            chaos = repro.make_spec(spec.app, preset="chaos_2003",
                                    **dict(spec.params))
            cells += _cells(chaos, ("active",), seed)
        return points, knee, cells

    def ops(self, inputs):
        points, knee, cells = inputs
        ops = []
        # Each traced point runs right before its untraced twin, so the
        # overhead ratio compares neighbours in time.
        for name, spec in points:
            ops.append(Op(name + TRACED,
                          lambda spec=spec: _traced_serve(spec)))
            ops.append(Op(name, lambda spec=spec: repro.serve(spec)))
        ops.append(Op("knee" + TRACED,
                      lambda: _knee(knee, evaluate=_traced_serve)))
        ops.append(Op("knee", lambda: _knee(knee)))
        return ops + _cell_ops(cells)

    def violations(self, outputs):
        found = _service_violations(outputs)
        for name, output in outputs.items():
            if not name.endswith(TRACED):
                continue
            twin = outputs.get(name[:-len(TRACED)])
            if output is not None and twin is not None \
                    and digest(output) != digest(twin):
                found.setdefault(name, []).append(
                    "traced result differs from its untraced twin")
        return found

    def trace_overhead(self, walls):
        traced = sum(wall for name, wall in walls.items()
                     if name.endswith(TRACED))
        untraced = sum(walls[name[:-len(TRACED)]] for name in walls
                       if name.endswith(TRACED))
        return traced / untraced


WORKLOADS = {w.name: w for w in (PaperGrid(), FabricReduce(), ServeActive(),
                                 TracedChaos())}
