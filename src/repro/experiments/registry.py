"""Experiment registry: the paper ledger.

One entry per paper table, figure, extension and ablation.  Each entry
knows how to regenerate its artifact (at a configurable workload scale)
and is the only place its claims live:

* ``paper`` — every value the paper quotes, with a :class:`Tolerance`
  per metric taken from the paper's own precision: half a unit in the
  last digit it quotes (``quoted("1.23")`` is 1.225..1.235), or the
  interval a qualitative statement names (``bounded(0, 1)`` for
  "slower than normal").  Never from the measured value;
* ``shape`` — named :class:`Shape` predicates for the qualitative
  claims (orderings, monotone growth, "≈ 0");
* ``deviations`` — the checks known to fail, each with a note.

:func:`evaluate` runs every check on one result; the ledger test fails
when the failing set differs from ``deviations`` in either direction.

Scales: the paper's own inputs are ``scale=1.0``; the registry's
``default_scale`` keeps each experiment's wall-clock time reasonable
while preserving behaviour (cache sizes co-scale with database inputs,
exactly the paper's own scaling trick).  An entry with fixed inputs has
``default_scale=None``: its ``run`` accepts ``scale=`` and ignores it,
and reports name no scale.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Tolerance:
    """The closed band around one paper value that counts as reproduced."""

    lo: float
    hi: float
    #: Where the paper states the value ("text", "Figure 15", ...).
    source: str

    def __str__(self) -> str:
        if self.hi == math.inf:
            return f">= {self.lo:g}"
        if self.lo == self.hi:
            return f"= {self.lo:g}"
        return f"{self.lo:g}..{self.hi:g}"


def quoted(text: str, source: str = "text") -> Tolerance:
    """A number the paper quotes, give or take half a unit in its last
    digit: ``"1.23"`` is 1.225..1.235, ``"36.5%"`` is 0.3645..0.3655."""
    number = text.rstrip("%")
    places = len(number.partition(".")[2]) + 1
    unit = 0.01 if text.endswith("%") else 1.0
    half = 0.5 * 10.0 ** (1 - places)
    return Tolerance(round((float(number) - half) * unit, places + 2),
                     round((float(number) + half) * unit, places + 2), source)


def bounded(lo: float, hi: float = math.inf,
            source: str = "text") -> Tolerance:
    """The interval a qualitative statement names."""
    return Tolerance(float(lo), float(hi), source)


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Shape:
    """A named qualitative claim: ``value(result) <op> bound``.

    ``op`` is a comparison (``<``, ``<=``, ``>``, ``>=``, ``==``) or
    ``"in"``, which takes a ``(lo, hi)`` bound and holds strictly
    inside it.
    """

    name: str
    value: Callable[[Any], float]
    op: str
    bound: Any

    def holds(self, value: float) -> bool:
        if self.op == "in":
            lo, hi = self.bound
            return lo < value < hi
        return _OPS[self.op](value, self.bound)

    def claim(self) -> str:
        if self.op == "in":
            return f"{self.bound[0]!r} < x < {self.bound[1]!r}"
        return f"{self.op} {self.bound!r}"


@dataclass
class Experiment:
    """A reproducible paper artifact and every claim made about it."""

    experiment_id: str
    title: str
    #: Paper-quoted values this experiment should reproduce.
    paper: Dict[str, float]
    #: run(scale) -> result object (BenchmarkResult, rows, ...).
    run: Callable
    #: measured(result) -> {metric: value}, a superset of ``paper``.
    measured: Callable = lambda result: {}
    #: None when the inputs are fixed (``run`` ignores ``scale``).
    default_scale: Optional[float] = 1.0
    notes: str = ""
    #: One band per ``paper`` metric.
    tolerance: Dict[str, Tolerance] = field(default_factory=dict)
    shape: Tuple[Shape, ...] = ()
    #: Check name -> why it fails: the documented deviations.
    deviations: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Outcome:
    """One evaluated check."""

    check: str
    value: float
    claim: str
    ok: bool
    #: The paper value for a paper-metric check, None for a shape check.
    paper: Optional[float] = None


_REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add an experiment to the registry (id must be unique); every
    paper metric needs a tolerance holding the paper's own value, and
    every deviation must name a check."""
    eid = experiment.experiment_id
    if eid in _REGISTRY:
        raise ValueError(f"duplicate experiment {eid}")
    if set(experiment.tolerance) != set(experiment.paper):
        raise ValueError(f"{eid}: tolerances must cover exactly the paper "
                         f"metrics {sorted(experiment.paper)}")
    for metric, value in experiment.paper.items():
        band = experiment.tolerance[metric]
        if not band.lo <= value <= band.hi:
            raise ValueError(f"{eid}: paper value {metric}={value} lies "
                             f"outside its own tolerance {band}")
    names = list(experiment.paper) + [s.name for s in experiment.shape]
    if len(set(names)) != len(names):
        raise ValueError(f"{eid}: duplicate check names")
    unknown = set(experiment.deviations) - set(names)
    if unknown:
        raise ValueError(f"{eid}: deviations name no check: {sorted(unknown)}")
    _REGISTRY[eid] = experiment
    return experiment


def get(experiment_id: str) -> Experiment:
    """Look up one experiment."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(_REGISTRY)}") from None


def all_experiments() -> List[Experiment]:
    """All registered experiments in id order."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def paper_experiments() -> List[Experiment]:
    """The paper's own tables and figures (ids ``fig*`` and ``table*``)."""
    return [e for e in all_experiments()
            if e.experiment_id.startswith(("fig", "table"))]


def ablation_experiments() -> List[Experiment]:
    """The design-choice sweeps (ids ``ablation_*``)."""
    return [e for e in all_experiments()
            if e.experiment_id.startswith("ablation_")]


def evaluate(experiment: Experiment, result) -> List[Outcome]:
    """Every check of ``experiment`` on ``result``: paper metrics first.

    A paper metric that ``measured`` omits is a failing check.
    """
    measured = experiment.measured(result)
    outcomes = []
    for metric, paper_value in experiment.paper.items():
        band = experiment.tolerance[metric]
        value = measured.get(metric)
        ok = value is not None and band.lo <= value <= band.hi
        outcomes.append(Outcome(
            metric, float("nan") if value is None else float(value),
            str(band), ok, paper_value))
    for shape in experiment.shape:
        value = float(shape.value(result))
        outcomes.append(Outcome(shape.name, value, shape.claim(),
                                shape.holds(value)))
    return outcomes
