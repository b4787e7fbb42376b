"""Paper-scale runs (slow; excluded by default).

Run with::

    pytest -m slow tests/test_paper_scale.py

These execute the database and sort experiments at the paper's full
Table-1 sizes (128 MB Select, 16 MB x 128 MB HashJoin, 16M-record sort)
to confirm the scaled defaults used everywhere else do not distort the
normalized metrics.
"""

import pytest

import repro
from repro.apps import HashJoinApp, SelectApp, SortApp

pytestmark = pytest.mark.slow


def test_select_full_scale_matches_scaled_shape():
    full = repro.run(lambda: SelectApp(scale=1.0))
    assert full.normalized_traffic("active") == pytest.approx(0.25, abs=0.02)
    normal_avg = (full.utilization("normal")
                  + full.utilization("normal+pref")) / 2
    active_avg = (full.utilization("active")
                  + full.utilization("active+pref")) / 2
    assert 15 < normal_avg / active_avg < 30
    times = [full.case(label).exec_ps
             for label in ("normal+pref", "active", "active+pref")]
    assert max(times) / min(times) < 1.10


def test_hashjoin_full_scale_pref_cases_tie():
    full = repro.run(lambda: HashJoinApp(scale=1.0))
    assert full.active_pref_speedup == pytest.approx(1.0, abs=0.05)
    npref = full.case("normal+pref").host.stall_frac
    apref = full.case("active+pref").host.stall_frac
    assert apref < npref


def test_sort_quarter_scale_traffic_formula():
    # 1/4 of 16M records (full scale would take ~10 min of wall clock).
    result = repro.run(lambda: SortApp(scale=0.25))
    assert result.normalized_traffic("active") == pytest.approx(0.40,
                                                                abs=0.01)
