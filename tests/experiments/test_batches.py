"""Registry entries reach the harness's pool and result cache.

Every entry whose points are app cases hands all of its cells to the
harness in a single ``ExperimentRunner.run_cells`` call, so ``python -m
repro.experiments --parallel N --cache DIR`` reaches every point: a
configured cache restores a second run without simulating anything,
and a two-worker pool returns the serial rows.  ``ext_service_slo``'s
knee searches read and fill the configured cache too.
"""

import pytest

import repro
from repro.experiments import get
from repro.metrics.results import BenchmarkResult
from repro.runner import harness

#: Entry -> a small scale for it (None: the entry's inputs are fixed).
BATCHED = {
    "fig15_reduce_to_one": 0.01,
    "fig16_distributed_reduce": 0.01,
    "fig17_md5_multicpu": 1 / 64,
    "table2": None,
    "ablation_buffer_count": None,
    "ablation_clock_ratio": 1 / 32,
    "ablation_cut_through": 1 / 32,
    "ablation_receive_discipline": None,
    "ablation_selectivity": 1 / 512,
    "ablation_sort_skew": 1 / 2048,
    "ablation_storage_scaling": 1 / 32,
    "ablation_vector_size": None,
    "ext_fabric_scale": 0.01,
    "ext_fabric_availability": 0.01,
}


def _measured(result):
    """``result`` with every BenchmarkResult cut to its name and cases:
    its harness stats say how the cells were obtained (worker count,
    cache directory), not what they measured."""
    if isinstance(result, BenchmarkResult):
        return result.name, result.cases
    if isinstance(result, dict):
        return {key: _measured(value) for key, value in result.items()}
    return result


@pytest.fixture(autouse=True)
def restore_defaults():
    saved = repro.configure()
    yield
    repro.configure(**saved)


@pytest.mark.parametrize("experiment_id", sorted(BATCHED))
def test_entry_runs_its_points_as_one_batch(experiment_id, tmp_path,
                                            monkeypatch):
    experiment = get(experiment_id)
    scale = BATCHED[experiment_id]
    batches = []
    run_cells = harness.ExperimentRunner.run_cells

    def counting(runner, cells):
        batches.append(len(cells))
        return run_cells(runner, cells)

    repro.configure(cache=str(tmp_path))
    with monkeypatch.context() as patch:
        patch.setattr(harness.ExperimentRunner, "run_cells", counting)
        first = experiment.run(scale)
    assert len(batches) == 1
    assert len(repro.ResultCache(tmp_path)) == batches[0]

    def simulate(*args, **kwargs):
        raise AssertionError("a cached point was simulated again")

    with monkeypatch.context() as patch:
        patch.setattr(harness, "simulate_cell", simulate)
        assert _measured(experiment.run(scale)) == _measured(first)

    repro.configure(cache=None, parallel=2)
    assert _measured(experiment.run(scale)) == _measured(first)


@pytest.mark.slow
def test_service_slo_restores_from_the_result_cache(tmp_path, monkeypatch):
    from repro.traffic import service

    experiment = get("ext_service_slo")
    repro.configure(cache=str(tmp_path))
    first = experiment.run(experiment.default_scale)
    assert len(repro.ResultCache(tmp_path)) == sum(row["sims"]
                                                   for row in first)

    def simulate(*args, **kwargs):
        raise AssertionError("a cached probe was simulated again")

    monkeypatch.setattr(service, "_simulate", simulate)
    assert experiment.run(experiment.default_scale) == first
