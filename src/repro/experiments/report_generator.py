"""The one renderer of experiment results, plain text or markdown.

:func:`run_and_render` serves ``python -m repro.experiments`` (plain)
and its ``--markdown`` report; :func:`summary` renders EXPERIMENTS.md's
generated blocks (:data:`BLOCKS`: the paper's tables and figures, and
the ablations), which :func:`write_summary` rewrites in place::

    python -c "from repro.experiments.report_generator import write_summary; write_summary('EXPERIMENTS.md')"
"""

from __future__ import annotations

import re
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..metrics.report import (
    breakdown_table,
    comparison_table,
    performance_bars,
    performance_table,
    rows_table,
)
from ..metrics.results import BenchmarkResult
from .registry import (
    Experiment,
    Outcome,
    ablation_experiments,
    all_experiments,
    evaluate,
    paper_experiments,
)

#: EXPERIMENTS.md's generated blocks: name -> the entries it renders.
#: Block ``name`` sits between ``<!-- name:begin (generated; do not
#: edit) -->`` and ``<!-- name:end -->``.
BLOCKS = {"ledger": paper_experiments, "ablations": ablation_experiments}


def _number(value: float) -> str:
    return f"{value:.3f}" if abs(value) < 1e4 else f"{value:.4g}"


def _status(experiment: Experiment, outcome: Outcome) -> str:
    documented = outcome.check in experiment.deviations
    if outcome.ok:
        return "unexpected pass" if documented else "ok"
    return "deviation" if documented else "FAIL"


def _result_tables(result, markdown: bool) -> List[str]:
    """The figure-style tables of one result, by result type."""
    fence = (lambda text: f"```\n{text}\n```") if markdown else str
    if isinstance(result, BenchmarkResult):
        return [fence(performance_table(result)),
                fence(performance_bars(result)),
                fence(breakdown_table(result))]
    if isinstance(result, dict) and result and all(
            isinstance(v, BenchmarkResult) for v in result.values()):
        parts = []
        for key, sub in result.items():
            parts.append(f"**Variant {key}:**" if markdown
                         else f"-- variant {key} --")
            parts.append(fence(performance_table(sub)))
        return parts
    if isinstance(result, list) and result and isinstance(result[0], dict):
        return [rows_table(result, markdown=markdown)]
    return []


def ledger_table(experiment: Experiment, result,
                 outcomes: Sequence[Outcome]) -> str:
    """Every check with its measured value, claim and status, then the
    experiment's other measured metrics."""
    rows = [(o.check, o.value, o.paper, o.claim, _status(experiment, o))
            for o in outcomes]
    rows += [(metric, value, None, "-", "")
             for metric, value in experiment.measured(result).items()
             if metric not in experiment.paper]
    return comparison_table(experiment.experiment_id, rows,
                            extra=("claim", "status"))


def render(experiment: Experiment, result, outcomes: Sequence[Outcome],
           scale: Optional[float], elapsed: float,
           markdown: bool = False) -> str:
    """One experiment's result tables, ledger and notes; a ``None``
    scale renders as fixed inputs."""
    if markdown:
        inputs = "Fixed inputs" if scale is None else f"Scale {scale:g}"
        sections = [f"## {experiment.title}",
                    f"{inputs}, wall time {elapsed:.1f} s."]
    else:
        inputs = "fixed inputs" if scale is None else f"scale={scale:g}"
        sections = [f"== {experiment.title} ({inputs}, {elapsed:.1f}s) =="]
    sections += _result_tables(result, markdown)
    table = ledger_table(experiment, result, outcomes)
    sections.append(f"```\n{table}\n```" if markdown else table)
    for outcome in outcomes:
        note = experiment.deviations.get(outcome.check)
        if note and not outcome.ok:
            sections.append(f"*{outcome.check}: {note}*" if markdown
                            else f"{outcome.check}: {note}")
    if experiment.notes:
        sections.append(f"*Note: {experiment.notes}*" if markdown
                        else f"note: {experiment.notes}")
    return "\n\n".join(sections)


def run_and_render(experiment: Experiment, scale: Optional[float] = None,
                   markdown: bool = False,
                   collect: Optional[Dict] = None) -> str:
    """Run ``experiment`` once, evaluate its checks and render both.

    ``collect``, if given, receives the measured metrics and check
    outcomes keyed by experiment id (for ``--json``).  ``scale`` applies
    only to an experiment whose inputs scale; one with fixed inputs runs
    and reports without a scale.
    """
    chosen = experiment.default_scale
    if chosen is not None and scale is not None:
        chosen = scale
    start = time.perf_counter()
    result = experiment.run(chosen)
    elapsed = time.perf_counter() - start
    outcomes = evaluate(experiment, result)
    if collect is not None:
        collect[experiment.experiment_id] = {
            "title": experiment.title,
            "scale": chosen,
            "paper": experiment.paper,
            "measured": experiment.measured(result),
            "checks": {o.check: {"value": o.value, "claim": o.claim,
                                 "status": _status(experiment, o)}
                       for o in outcomes},
        }
    return render(experiment, result, outcomes, chosen, elapsed, markdown)


def write_report(path: str, scale: Optional[float] = None,
                 experiment_ids: Optional[list] = None) -> None:
    """Run the experiments and write one markdown report to ``path``."""
    chosen = [e for e in all_experiments()
              if not experiment_ids or e.experiment_id in experiment_ids]
    sections = ["# Generated results report",
                "Produced by `python -m repro.experiments --markdown`; see "
                "EXPERIMENTS.md for curated paper-vs-measured commentary."]
    sections += [run_and_render(e, scale, markdown=True) for e in chosen]
    with open(path, "w") as handle:
        handle.write("\n\n".join(sections) + "\n")


def summary(runs: Sequence[Tuple[Experiment, Sequence[Outcome]]]) -> str:
    """One generated block of EXPERIMENTS.md.

    A table with one row per paper metric — or per shape check, when
    the entries quote no paper number (the ablations) — then, for the
    metrics and for the shape checks, the "k of N" line and each miss
    with its note.
    """
    checks = [(e.title.split(":")[0] if e.paper else f"`{e.experiment_id}`",
               e, o) for e, outcomes in runs for o in outcomes]
    metrics = [check for check in checks if check[2].paper is not None]
    shapes = [check for check in checks if check[2].paper is None]
    if metrics:
        lines = ["| Experiment | Metric | Paper | Tolerance | Source | "
                 "Measured | |", "|---|---|---:|---|---|---:|---|"]
        lines += [f"| {label} | {o.check} | {o.paper:g} | {o.claim} | "
                  f"{e.tolerance[o.check].source} | {_number(o.value)} | "
                  f"{'✓' if o.ok else '✗'} |" for label, e, o in metrics]
    else:
        lines = ["| Entry | Check | Claim | Measured | |",
                 "|---|---|---|---:|---|"]
        lines += [f"| {label} | {o.check} | {o.claim} | {_number(o.value)} "
                  f"| {'✓' if o.ok else '✗'} |" for label, e, o in shapes]
    for found, held in ((metrics, "metrics inside tolerance"),
                        (shapes, "shape checks hold")):
        if not found:
            continue
        misses = [f"- {label} · {o.check}: {_number(o.value)} against "
                  f"{o.claim}; {e.deviations.get(o.check, 'UNDOCUMENTED')}"
                  for label, e, o in found if not o.ok]
        lines += ["", f"**{len(found) - len(misses)} of {len(found)} "
                      f"{held}.**"] + ([""] + misses if misses else [])
    return "\n".join(lines)


def replace_summaries(text: str, blocks: Dict[str, str]) -> str:
    """``text`` with each generated block replaced by its rendering in
    ``blocks`` (block name -> :func:`summary` output)."""
    for name, block in blocks.items():
        begin = f"<!-- {name}:begin (generated; do not edit) -->"
        end = f"<!-- {name}:end -->"
        pattern = re.compile(re.escape(begin) + ".*?" + re.escape(end),
                             re.DOTALL)
        if not pattern.search(text):
            raise ValueError(f"no generated {name} block to replace")
        text = pattern.sub(lambda _m: f"{begin}\n{block}\n{end}", text)
    return text


def write_summary(path: str) -> None:
    """Run every entry of :data:`BLOCKS` at its default scale and
    regenerate the blocks of the markdown file at ``path``."""
    blocks = {name: summary([(e, evaluate(e, e.run(e.default_scale)))
                             for e in entries()])
              for name, entries in BLOCKS.items()}
    with open(path) as handle:
        text = handle.read()
    with open(path, "w") as handle:
        handle.write(replace_summaries(text, blocks))
