"""Golden-output tests for the figure renderers.

Exact expected text pins the table layout — the harness output is part
of the public interface (EXPERIMENTS.md quotes it).
"""

from repro.cpu import Breakdown
from repro.metrics import (
    CaseResult,
    BenchmarkResult,
    breakdown_table,
    performance_table,
    render_table,
)


def golden_result():
    def case(label, exec_ps, busy, stall, bytes_in, switch=False):
        return CaseResult(
            label=label, exec_ps=exec_ps,
            host=Breakdown(f"{label}-host", exec_ps, busy, stall),
            switch_cpus=([Breakdown(f"{label}-sp", exec_ps, busy // 2, 0)]
                         if switch else []),
            host_bytes_in=bytes_in)

    return BenchmarkResult(name="demo", cases={
        "normal": case("normal", 2_000_000_000, 500_000_000,
                       500_000_000, 1000),
        "normal+pref": case("normal+pref", 1_000_000_000, 500_000_000,
                            250_000_000, 1000),
        "active": case("active", 1_000_000_000, 100_000_000, 0, 250,
                       switch=True),
        "active+pref": case("active+pref", 500_000_000, 100_000_000, 0,
                            250, switch=True),
    })


def test_performance_table_golden():
    expected = """\
demo: performance (Figure style)
       case  norm. time  host util  norm. traffic  exec (ms)
-----------  ----------  ---------  -------------  ---------
     normal       1.000      0.500          1.000       2.00
normal+pref       0.500      0.750          1.000       1.00
     active       0.500      0.100          0.250       1.00
active+pref       0.250      0.200          0.250       0.50"""
    assert performance_table(golden_result()) == expected


def test_breakdown_table_golden():
    expected = """\
demo: execution-time breakdown (Figure style)
   cpu   busy  cache stall   idle
------  -----  -----------  -----
  n-HP  25.0%        25.0%  50.0%
n+p-HP  50.0%        25.0%  25.0%
  a-HP  10.0%         0.0%  90.0%
  a-SP   5.0%         0.0%  95.0%
a+p-HP  20.0%         0.0%  80.0%
a+p-SP  10.0%         0.0%  90.0%"""
    assert breakdown_table(golden_result()) == expected


def test_render_table_golden():
    expected = """\
 a   bb
--  ---
 1    2
33  444"""
    assert render_table(["a", "bb"], [[1, 2], [33, 444]]) == expected


def test_bar_chart_golden():
    from repro.metrics import bar_chart
    expected = """\
demo
 fast  ########## 0.500
 slow  #################### 1.000
empty  | 0.000"""
    actual = bar_chart("demo", [("fast", 0.5), ("slow", 1.0),
                                ("empty", 0.0)], width=20)
    assert actual == expected


def test_bar_chart_ceiling_clamps():
    from repro.metrics import bar_chart
    text = bar_chart("x", [("over", 2.0)], width=10, ceiling=1.0)
    assert "##########" in text
    assert "2.000" in text


def test_bar_chart_validation():
    import pytest
    from repro.metrics import bar_chart
    with pytest.raises(ValueError):
        bar_chart("x", [("a", 1.0)], width=0)


def test_performance_bars_contains_all_metrics():
    from repro.metrics import performance_bars
    text = performance_bars(golden_result())
    assert "execution time (normalized)" in text
    assert "host utilization" in text
    assert "host I/O traffic (normalized)" in text
    assert text.count("normal+pref") == 3


def test_rows_table_golden_plain_and_markdown():
    """One renderer serves the experiments CLI and the markdown report;
    a None cell (e.g. a baseline row's ``kill_at_us``) renders in both."""
    from repro.metrics.report import rows_table
    rows = [{"topology": "tree", "kill_at_us": None, "ratio": 1.5},
            {"topology": "fat_tree", "kill_at_us": 40, "ratio": 0.25}]
    assert rows_table(rows) == """\
    topology    kill_at_us         ratio
        tree          None         1.500
    fat_tree            40         0.250"""
    assert rows_table(rows, markdown=True) == """\
| topology | kill_at_us | ratio |
|---|---|---|
| tree | None | 1.500 |
| fat_tree | 40 | 0.250 |"""
