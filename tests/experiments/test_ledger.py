"""The paper ledger: every registry entry's checks at its default scale.

Each entry runs once per test run.  Its failing checks must be exactly
its documented deviations: a new failure is a regression, and a
deviation that starts passing must lose its note.  The three fabric and
service extensions take ~19 s and run under ``-m slow``.
"""

from pathlib import Path

import pytest

from repro.experiments import all_experiments, evaluate, get
from repro.experiments.registry import bounded, quoted
from repro.experiments.report_generator import (BLOCKS, replace_summaries,
                                                summary)

SLOW = {"ext_fabric_scale", "ext_fabric_availability", "ext_service_slo"}

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def outcomes_of():
    """Evaluate each entry at its default scale, once per module."""
    cache = {}

    def outcomes_of(experiment):
        eid = experiment.experiment_id
        if eid not in cache:
            cache[eid] = evaluate(experiment,
                                  experiment.run(experiment.default_scale))
        return cache[eid]
    return outcomes_of


@pytest.mark.parametrize("experiment_id", [
    pytest.param(e.experiment_id,
                 marks=[pytest.mark.slow] if e.experiment_id in SLOW else [])
    for e in all_experiments()])
def test_ledger(experiment_id, outcomes_of):
    experiment = get(experiment_id)
    outcomes = outcomes_of(experiment)
    failing = {o.check for o in outcomes if not o.ok}
    assert failing == set(experiment.deviations), [
        (o.check, o.value, o.claim, o.ok) for o in outcomes]


def test_experiments_md_summary_is_generated(outcomes_of):
    """EXPERIMENTS.md's generated blocks — the paper's tables and
    figures, and the ablations — are the renderer's output, byte for
    byte.  Regenerate them with ``write_summary('EXPERIMENTS.md')``."""
    blocks = {name: summary([(e, outcomes_of(e)) for e in entries()])
              for name, entries in BLOCKS.items()}
    text = EXPERIMENTS_MD.read_text()
    assert replace_summaries(text, blocks) == text


def test_tolerances_come_from_the_quoted_precision():
    assert (quoted("1.23").lo, quoted("1.23").hi) == (1.225, 1.235)
    band = quoted("36.5%")
    assert band.lo == pytest.approx(0.3645) and band.hi == pytest.approx(0.3655)
    assert (quoted("21").lo, quoted("21").hi) == (20.5, 21.5)
    assert str(bounded(0, 1)) == "0..1"
    assert str(bounded(4)) == ">= 4"


def test_a_missing_paper_metric_fails_its_check():
    experiment = get("table1")
    broken = type(experiment)(
        experiment_id="x", title="x", paper=experiment.paper,
        run=experiment.run, measured=lambda rows: {},
        tolerance=experiment.tolerance)
    [outcome] = evaluate(broken, experiment.run())[:1]
    assert not outcome.ok
