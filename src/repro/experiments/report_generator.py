"""Generate a complete markdown results report.

``generate_report()`` runs every registered experiment at its default
scale and emits one self-contained markdown document: figure-style
tables, bar charts, and paper-vs-measured comparisons.  This is the
machine-generated companion to the hand-curated EXPERIMENTS.md::

    python -m repro.experiments --markdown experiments_report.md
"""

from __future__ import annotations

import time
from typing import Optional

from ..metrics.report import (
    breakdown_table,
    comparison_table,
    performance_bars,
    performance_table,
    rows_table,
)
from ..metrics.results import BenchmarkResult
from .registry import all_experiments, compare


def _render_result(experiment, result) -> str:
    parts = []
    if isinstance(result, BenchmarkResult):
        parts.append("```\n" + performance_table(result) + "\n```")
        parts.append("```\n" + performance_bars(result) + "\n```")
        parts.append("```\n" + breakdown_table(result) + "\n```")
    elif isinstance(result, dict) and result and all(
            isinstance(v, BenchmarkResult) for v in result.values()):
        for key, sub in result.items():
            parts.append(f"**Variant {key}:**")
            parts.append("```\n" + performance_table(sub) + "\n```")
    elif isinstance(result, list) and result and isinstance(result[0], dict):
        parts.append(rows_table(result, markdown=True))
    parts.append("```\n"
                 + comparison_table(experiment.experiment_id,
                                    compare(experiment, result))
                 + "\n```")
    if experiment.notes:
        parts.append(f"*Note: {experiment.notes}*")
    return "\n\n".join(parts)


def generate_report(scale: Optional[float] = None,
                    experiment_ids: Optional[list] = None) -> str:
    """Run the experiments and return the markdown report."""
    chosen = all_experiments()
    if experiment_ids:
        chosen = [e for e in chosen if e.experiment_id in experiment_ids]
    sections = [
        "# Generated results report",
        "",
        "Produced by `python -m repro.experiments --markdown`; see",
        "EXPERIMENTS.md for curated paper-vs-measured commentary.",
        "",
    ]
    for experiment in chosen:
        chosen_scale = experiment.default_scale if scale is None else scale
        start = time.time()
        result = experiment.run(chosen_scale)
        elapsed = time.time() - start
        sections.append(f"## {experiment.title}")
        sections.append("")
        sections.append(f"Scale {chosen_scale:g}, wall time {elapsed:.1f} s.")
        sections.append("")
        sections.append(_render_result(experiment, result))
        sections.append("")
    return "\n".join(sections)


def write_report(path: str, scale: Optional[float] = None,
                 experiment_ids: Optional[list] = None) -> None:
    """Generate and write the report to ``path``."""
    with open(path, "w") as handle:
        handle.write(generate_report(scale=scale,
                                     experiment_ids=experiment_ids))
