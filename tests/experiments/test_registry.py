"""Tests for the experiment registry and the per-figure definitions."""

import pytest

import repro.experiments as experiments
from repro.experiments import all_experiments, evaluate, get
from repro.experiments.registry import Experiment, register


EXPECTED_IDS = {
    "table1",
    "table2",
    "fig03_04_mpeg",
    "fig05_06_hashjoin",
    "fig07_08_select",
    "fig09_10_grep",
    "fig11_12_tar",
    "fig13_14_sort",
    "fig15_reduce_to_one",
    "fig16_distributed_reduce",
    "fig17_md5_multicpu",
    "ext_two_level",
    "ext_multiprogramming",
    "ext_fabric_scale",
    "ext_fabric_availability",
    "ext_service_slo",
    "ablation_cut_through",
    "ablation_buffer_count",
    "ablation_clock_ratio",
    "ablation_prefetch_depth",
    "ablation_noninterference",
    "ablation_filter_placement",
    "ablation_storage_scaling",
    "ablation_selectivity",
    "ablation_queueing_discipline",
    "ablation_receive_discipline",
    "ablation_sort_skew",
    "ablation_vector_size",
}


def test_every_paper_artifact_is_registered():
    assert {e.experiment_id for e in all_experiments()} == EXPECTED_IDS


def test_get_unknown_raises():
    with pytest.raises(KeyError):
        get("fig99")


def test_duplicate_registration_rejected():
    exp = get("table1")
    with pytest.raises(ValueError):
        register(Experiment(
            experiment_id="table1", title="dup", paper={}, run=lambda s: None,
            measured=lambda r: {}))


def test_table1_lists_paper_sizes():
    rows = get("table1").run()
    names = [row[0] for row in rows]
    assert "MPEG filter" in names
    assert "Collective Reduction" in names
    sizes = dict(rows)
    assert sizes["Grep"] == 1_146_880
    assert sizes["MPEG filter"] == 2_202_640
    assert sizes["MD5"] == 256 * 1024


def test_compare_aligns_measured_with_paper():
    exp = get("table1")
    outcomes = {o.check: o for o in evaluate(exp, exp.run())}
    assert outcomes["applications"].value == 8
    assert outcomes["applications"].paper == 8


def test_grep_experiment_end_to_end():
    exp = get("fig09_10_grep")
    result = exp.run(scale=0.25)
    by_metric = {o.check: o.value for o in evaluate(exp, result)}
    assert 1.0 < by_metric["active speedup (vs normal)"] < 1.6
    assert by_metric["host util active"] < 0.05


def test_table2_verifies_both_modes():
    exp = get("table2")
    result = exp.run()
    assert exp.measured(result)["modes verified"] == 2.0


def test_experiments_have_paper_expectations():
    for exp in all_experiments():
        assert exp.title
        if exp.experiment_id.startswith("ablation_"):
            # Design-choice sweeps quote no paper number; their claims
            # are shape checks.
            assert exp.shape, f"{exp.experiment_id} states no claim"
        else:
            assert exp.paper, f"{exp.experiment_id} has no paper values"


def test_main_module_runs_single_experiment(capsys):
    from repro.experiments.__main__ import main
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "paper vs measured" in out


def test_main_renders_rows_with_none_cells(capsys):
    """The registry's first experiment has baseline rows whose
    ``kill_at_us`` is None; the CLI must render them, not crash."""
    from repro.experiments.__main__ import main
    assert main(["ext_fabric_availability"]) == 0
    out = capsys.readouterr().out
    assert "kill_at_us" in out
    assert "None" in out


def test_main_json_output(tmp_path, capsys):
    import json
    from repro.experiments.__main__ import main
    out_path = tmp_path / "results.json"
    assert main(["table1", "--json", str(out_path)]) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert data["table1"]["measured"]["applications"] == 8
    assert data["table1"]["paper"]["applications"] == 8


def test_every_run_accepts_a_scale():
    import inspect
    for exp in all_experiments():
        assert "scale" in inspect.signature(exp.run).parameters, \
            exp.experiment_id


def test_scale_is_reported_only_where_the_inputs_scale(tmp_path, capsys):
    """``--scale`` reaches an entry whose inputs scale; an entry with
    fixed inputs runs them and names no scale, in its header or JSON."""
    import json
    from repro.experiments.__main__ import main
    fixed = ["table1", "table2", "ablation_buffer_count",
             "ablation_noninterference", "ablation_vector_size"]
    assert all(get(eid).default_scale is None for eid in fixed)
    out_path = tmp_path / "results.json"
    assert main(["--scale", "0.001", "table2", "ablation_buffer_count",
                 "ablation_selectivity", "--json", str(out_path)]) == 0
    headers = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("== ")]
    assert [h.split(" (")[-1].split(",")[0] for h in headers] == [
        "fixed inputs", "fixed inputs", "scale=0.001"]
    data = json.loads(out_path.read_text())
    assert data["table2"]["scale"] is None
    assert data["ablation_buffer_count"]["scale"] is None
    assert data["ablation_selectivity"]["scale"] == 0.001


def test_main_runs_an_ablation_entry(capsys):
    from repro.experiments.__main__ import main
    assert main(["ablation_noninterference"]) == 0
    out = capsys.readouterr().out
    assert "Ablation: forwarding under active load" in out
    assert "forwarding slowdown off 1.0" in out
    assert "ok" in out


def test_markdown_report_generator(tmp_path):
    from repro.experiments.report_generator import write_report
    out = tmp_path / "report.md"
    write_report(str(out), experiment_ids=["table1", "fig09_10_grep"],
                 scale=0.25)
    text = out.read_text()
    assert "# Generated results report" in text
    assert "Grep" in text
    assert "paper vs measured" in text
    assert "####" in text  # bar charts present


def test_main_markdown_flag(tmp_path, capsys):
    from repro.experiments.__main__ import main
    out = tmp_path / "report.md"
    assert main(["table1", "--markdown", str(out)]) == 0
    assert out.exists()
