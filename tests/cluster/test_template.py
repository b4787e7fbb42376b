"""Template caches: warm (cache-shared) runs equal cold builds, bit for bit.

The caches in :mod:`repro.cluster.template` share config-pure
construction — built apps and fabric hop walks — across rate points,
cases, and bench repeats.  Their safety contract is proven here: a run
through a warm cache is bit-identical to a cold build for every
registered application, and every cached value that is mutable comes
back as an independent copy.
"""

import pytest

from repro.cluster.fabric import TopologySpec, build_fabric
from repro.cluster.template import (cached_app, cached_service_app,
                                    clear_templates, client_hops,
                                    template_stats, _APP_CACHE_MAX)
from repro.runner.cache import encode_case
from repro.runner.harness import Cell, run_cell
from repro.runner.spec import APP_REGISTRY, make_spec
from repro.sim import Environment
from repro.traffic import ServiceSpec
from repro.traffic.service import _simulate

#: Small-but-real scale per registered app (reduce takes no scale).
SCALES = {"grep": 0.05, "select": 1 / 128, "hashjoin": 1 / 128,
          "mpeg": 0.1, "tar": 0.1, "sort": 1 / 512, "md5": 0.25,
          "reduce": None}


def small_spec(name):
    scale = SCALES[name]
    return make_spec(name) if scale is None else make_spec(name, scale=scale)


@pytest.fixture(autouse=True)
def cold_caches():
    clear_templates()
    yield
    clear_templates()


# ----------------------------------------------------------------------
# Bit-identity: warm == cold, every app
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(APP_REGISTRY))
def test_closed_loop_warm_run_equals_cold_build(name):
    cell = Cell(spec=small_spec(name), case="active")
    cold = encode_case(run_cell(cell))        # miss: builds and caches
    warm = encode_case(run_cell(cell))        # hit: shares the app
    assert warm == cold
    stats = template_stats()
    assert stats["app_hits"] >= 1


@pytest.mark.parametrize("topology,hosts", [("single", 1), ("fat_tree", 4)])
def test_service_warm_run_equals_cold_build(topology, hosts):
    spec = ServiceSpec(app="grep", case="active", rate_rps=4000.0,
                       duration_s=0.005, num_streams=4, num_keys=16,
                       depth=16, workers=4, seed=5,
                       topology=topology, hosts=hosts)
    cold = _simulate(spec).to_dict()          # populates every cache
    warm = _simulate(spec).to_dict()          # runs entirely warm
    assert warm == cold
    stats = template_stats()
    assert stats["app_hits"] >= 1


# ----------------------------------------------------------------------
# The individual caches
# ----------------------------------------------------------------------
def test_cached_app_shares_one_instance_per_spec_content():
    spec = small_spec("select")
    app = cached_app(spec)
    assert cached_app(make_spec("select", scale=SCALES["select"])) is app


def test_cached_app_is_bounded():
    for i in range(_APP_CACHE_MAX + 3):
        cached_app(make_spec("select", scale=(i + 1) / 2048))
    assert template_stats()["apps"] == _APP_CACHE_MAX


def test_cached_service_app_folds_rate_points_together():
    base = ServiceSpec(app="grep", case="active", rate_rps=1000.0)
    app_spec, app = cached_service_app(base)
    again_spec, again = cached_service_app(base.at_rate(9000.0))
    assert again_spec == app_spec
    assert again is app


def test_client_hops_match_a_direct_fabric_walk():
    kind, hosts = "fat_tree", 8
    fabric = build_fabric(Environment(), TopologySpec(kind=kind,
                                                      num_hosts=hosts))
    assert client_hops(kind, hosts) == fabric.client_hops()
    assert client_hops("single", 1) == [1]


def test_client_hops_returns_an_independent_list():
    first = client_hops("fat_tree", 8)
    first[0] = -99
    assert client_hops("fat_tree", 8)[0] != -99
    assert template_stats()["hops_hits"] >= 1


def test_clear_templates_empties_everything():
    cached_app(small_spec("select"))
    client_hops("fat_tree", 8)
    clear_templates()
    stats = template_stats()
    assert stats["apps"] == stats["hops"] == 0
