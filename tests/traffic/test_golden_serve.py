"""Golden serve points: both admission policies, frozen.

``golden_serve.json`` holds the ``ServiceResult.to_dict()`` of 24 serve
points — ``drop`` and ``backpressure`` admission, the ``normal`` and
``active`` cases, Poisson, bursty and diurnal arrivals, a single switch
and a 16-host fat tree — at a load that overflows a depth-4 queue, so
drops and blocked offers both happen.  The transport fixture
(``tests/sim/golden``) has no backpressure point; these hold the
admission queue and the service loop to the outputs of the
``Store``-based queue they replaced.  It was written once, before that
rewrite, with::

    PYTHONPATH=src python tests/traffic/test_golden_serve.py

Regenerating it from a later revision would compare the code with
itself, so do not.  Every point must match it traced and untraced.
"""

import json
from itertools import product
from pathlib import Path

import pytest

from repro.obs import TraceCollector
from repro.traffic.service import ServiceSpec, serve

FIXTURE_PATH = Path(__file__).with_name("golden_serve.json")

#: Fixed for every point: 120 arrivals against a depth-4 queue.
COMMON = dict(rate_rps=6000.0, duration_s=0.02, depth=4, workers=3,
              seed=7, slo_ms=1.0)
TOPOLOGIES = (("single", 1), ("fat_tree", 16))


def points():
    """``{name: spec}`` for the 24 frozen serve points."""
    out = {}
    for policy, case, arrival, (topology, hosts) in product(
            ("drop", "backpressure"), ("normal", "active"),
            ("poisson", "bursty", "diurnal"), TOPOLOGIES):
        spec = ServiceSpec(case=case, arrival=arrival, policy=policy,
                           topology=topology, hosts=hosts, **COMMON)
        out[f"{policy}/{case}/{arrival}/{topology}"] = spec
    return out


POINTS = points()


def _run(spec, traced):
    result = serve(spec, cache=False,
                   trace=TraceCollector() if traced else None)
    return json.loads(json.dumps(result.to_dict()))


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE_PATH.read_text())


def test_fixture_covers_every_point(fixture):
    assert sorted(fixture) == sorted(POINTS)
    policies = {fixture[name]["policy"] for name in fixture}
    assert policies == {"drop", "backpressure"}
    # The load overflows the queue: drops under one policy, none under
    # the other.
    assert any(fixture[name]["dropped"] for name in fixture
               if name.startswith("drop/"))
    assert not any(fixture[name]["dropped"] for name in fixture
                   if name.startswith("backpressure/"))


@pytest.mark.parametrize("traced", (False, True),
                         ids=("untraced", "traced"))
@pytest.mark.parametrize("name", sorted(POINTS))
def test_serve_point_matches_fixture(fixture, name, traced):
    assert _run(POINTS[name], traced) == fixture[name]


def main() -> None:
    doc = {name: _run(spec, False) for name, spec in POINTS.items()}
    FIXTURE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
