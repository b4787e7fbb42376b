"""Experiment harness: every paper table, figure and ablation, runnable.

Usage::

    from repro.experiments import evaluate, get

    exp = get("fig09_10_grep")
    result = exp.run(scale=exp.default_scale)
    for outcome in evaluate(exp, result):
        print(outcome.check, outcome.value, outcome.claim, outcome.ok)

``python -m repro.experiments`` runs everything and prints each
experiment's tables and paper ledger (the source of EXPERIMENTS.md).
"""

from . import ablations  # noqa: F401  (ablation_* experiments)
from . import availability  # noqa: F401  (extension experiment)
from . import figures  # noqa: F401  (registration side effects)
from . import multiprogramming  # noqa: F401  (extension experiment)
from . import scale_fabric  # noqa: F401  (extension experiment)
from . import service_slo  # noqa: F401  (extension experiment)
from . import two_level  # noqa: F401  (extension experiment)
from .registry import Experiment, all_experiments, evaluate, get

__all__ = ["Experiment", "all_experiments", "evaluate", "get"]
