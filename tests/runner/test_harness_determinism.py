"""The PR's core guarantee: serial == parallel == cache-restored.

Every :class:`CaseResult` field must match bit-for-bit across the three
execution paths; the cache must be able to satisfy a whole rerun.
"""

import pytest

from repro.runner.cache import encode_case
from repro.runner.harness import (CASE_LABELS, Cell, ExperimentRunner,
                                  cell_key, run_cell)
from repro.runner.spec import make_spec

SPECS = [make_spec("grep", scale=0.05), make_spec("select", scale=1 / 128)]


def snapshot(grid):
    return [{label: encode_case(case)
             for label, case in result.cases.items()} for result in grid]


@pytest.fixture(scope="module")
def serial_grid():
    return ExperimentRunner(parallel=1).run_grid(SPECS)


def test_parallel_matches_serial_field_by_field(serial_grid):
    fanned = ExperimentRunner(parallel=4).run_grid(SPECS)
    assert snapshot(fanned) == snapshot(serial_grid)


def test_cache_restores_bit_identical_results(tmp_path, serial_grid):
    cache_dir = tmp_path / "cache"
    runner = ExperimentRunner(parallel=1, cache=cache_dir)
    first = runner.run_grid(SPECS)
    assert snapshot(first) == snapshot(serial_grid)
    assert runner.cache.misses == len(SPECS) * len(CASE_LABELS)

    warm = ExperimentRunner(parallel=1, cache=cache_dir)
    second = warm.run_grid(SPECS)
    assert snapshot(second) == snapshot(serial_grid)
    assert warm.cache.hits == len(SPECS) * len(CASE_LABELS)
    assert warm.cache.misses == 0


def test_parallel_pool_populates_the_same_cache(tmp_path, serial_grid):
    cache_dir = tmp_path / "cache"
    ExperimentRunner(parallel=4, cache=cache_dir).run_grid(SPECS)
    warm = ExperimentRunner(parallel=1, cache=cache_dir)
    assert snapshot(warm.run_grid(SPECS)) == snapshot(serial_grid)
    assert warm.cache.misses == 0


def test_cell_runs_are_order_independent(serial_grid):
    cell = Cell(spec=SPECS[1], case="active+pref")
    alone = run_cell(cell)
    from_grid = serial_grid[1].case("active+pref")
    assert encode_case(alone) == encode_case(from_grid)


def test_seed_override_changes_key_and_schedule():
    spec = SPECS[0]
    base = Cell(spec=spec, case="normal")
    seeded = Cell(spec=spec, case="normal", seed=1234)
    assert cell_key(base) != cell_key(seeded)


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        Cell(spec=SPECS[0], case="turbo")


def test_parallel_must_be_positive():
    with pytest.raises(ValueError):
        ExperimentRunner(parallel=0)
