"""Text rendering of the paper's figures.

``performance_table`` renders the Figure 3/5/7/9/11/13 style bars
(normalized execution time, host utilization, normalized host traffic)
and ``breakdown_table`` the Figure 4/6/8/10/12/14 style execution-time
breakdowns, as aligned text tables suitable for the benchmark harness
output and EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..cluster import config as _cluster_config
from ..sim.units import ps_to_ms
from .results import BenchmarkResult


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))


def render_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Align ``rows`` under ``headers``."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [_format_row(headers, widths),
             _format_row(["-" * w for w in widths], widths)]
    lines.extend(_format_row(row, widths) for row in rows)
    return "\n".join(lines)


def performance_table(result: BenchmarkResult) -> str:
    """The three normalized metrics for each configuration."""
    rows = []
    for label in _cluster_config.CASE_ORDER:
        if label not in result.cases:
            continue
        case = result.cases[label]
        rows.append([
            label,
            f"{result.normalized_time(label):.3f}",
            f"{result.utilization(label):.3f}",
            f"{result.normalized_traffic(label):.3f}",
            f"{ps_to_ms(case.exec_ps):.2f}",
        ])
    return (f"{result.name}: performance (Figure style)\n"
            + render_table(
                ["case", "norm. time", "host util", "norm. traffic",
                 "exec (ms)"], rows))


def breakdown_table(result: BenchmarkResult) -> str:
    """Execution-time breakdown rows for each processor."""
    rows = []
    for label in _cluster_config.CASE_ORDER:
        if label not in result.cases:
            continue
        for row_label, breakdown in result.cases[label].breakdown_rows():
            rows.append([
                row_label,
                f"{breakdown.busy_frac:.1%}",
                f"{breakdown.stall_frac:.1%}",
                f"{breakdown.idle_frac:.1%}",
            ])
    return (f"{result.name}: execution-time breakdown (Figure style)\n"
            + render_table(["cpu", "busy", "cache stall", "idle"], rows))


def reliability_table(result: BenchmarkResult) -> str:
    """Fault/recovery metrics per configuration (chaos runs).

    Renders every ``CaseResult.extra`` key observed across the cases —
    retransmits, disk/SCSI retries, contained handler crashes, degraded
    time — one column per case.  Empty string on fault-free results.
    """
    labels = [label for label in _cluster_config.CASE_ORDER
              if label in result.cases]
    labels += [label for label in result.cases if label not in labels]
    keys: List[str] = []
    for label in labels:
        for key in result.cases[label].extra:
            if key not in keys:
                keys.append(key)
    if not keys:
        return ""
    rows = []
    for key in keys:
        row = [key]
        for label in labels:
            value = result.cases[label].extra.get(key)
            row.append("-" if value is None else f"{value:g}")
        rows.append(row)
    return (f"{result.name}: reliability (faults injected / recovered)\n"
            + render_table(["metric"] + labels, rows))


def latency_table(result) -> str:
    """Tail-latency report of an open-loop service result.

    Duck-typed on ``result.latency_summary()`` (see
    ``repro.traffic.ServiceResult``): per-series count/mean/p50/p95/p99/
    max plus the rate block (offered, throughput, goodput, drop rate,
    SLO attainment).  Empty string when the result has no latency data —
    closed-loop results simply omit this section.
    """
    summarize = getattr(result, "latency_summary", None)
    if summarize is None:
        return ""
    data = summarize()
    percentiles = sorted(
        float(key[1:]) for key in next(iter(data["series"].values()), {})
        if key.startswith("p"))
    rows = []
    for label, series in data["series"].items():
        if not series.get("count"):
            continue
        rows.append([label, f"{int(series['count'])}",
                     f"{series['mean']:.1f}"]
                    + [f"{series[f'p{p:g}']:.1f}" for p in percentiles]
                    + [f"{series['max']:.1f}"])
    headers = (["series", "count", "mean"]
               + [f"p{p:g}" for p in percentiles] + ["max"])
    sections = [f"{result.name}: tail latency",
                render_table(headers, rows)]
    rate_rows = [[key, f"{value:.4g}"]
                 for key, value in data["rates"].items()]
    if data.get("slo_ms") is not None:
        rate_rows.append(["SLO (ms)", f"{data['slo_ms']:g}"])
    if data.get("worst_stream_p99_us") is not None:
        rate_rows.append(["worst-stream p99 (us)",
                          f"{data['worst_stream_p99_us']:.1f}"])
    sections.append(render_table(["rate", "value"], rate_rows))
    return "\n".join(sections)


class Report:
    """All figure-style renderings of one result object.

    The preferred reporting API: ``result.report().performance()``
    instead of the free functions (which remain as the implementation).
    ``str(report)`` or :meth:`render` concatenates every non-empty
    section.  Works for closed-loop :class:`BenchmarkResult` values
    (performance/breakdown/...) and open-loop
    ``repro.traffic.ServiceResult`` values (:meth:`latency`): sections
    that do not apply to the wrapped result render as empty strings.
    """

    def __init__(self, result):
        self.result = result

    def _has_cases(self) -> bool:
        return bool(getattr(self.result, "cases", None))

    def performance(self) -> str:
        """Normalized time / utilization / traffic per configuration."""
        return performance_table(self.result) if self._has_cases() else ""

    def breakdown(self) -> str:
        """Busy / cache-stall / idle rows per processor."""
        return breakdown_table(self.result) if self._has_cases() else ""

    def reliability(self) -> str:
        """Fault-injection metrics; empty string on fault-free runs."""
        return reliability_table(self.result) if self._has_cases() else ""

    def latency(self) -> str:
        """Tail-latency percentiles, goodput, and drop rate (service
        results — ``repro.serve``); empty for closed-loop results."""
        return latency_table(self.result)

    def bars(self) -> str:
        """The three figure metrics as ASCII bar groups."""
        return performance_bars(self.result) if self._has_cases() else ""

    def summary(self) -> dict:
        """Machine-readable figure metrics (per-case dict)."""
        summarize = getattr(self.result, "summary", None)
        if summarize is None:
            return {}
        return summarize()

    def timeline(self, case: Optional[str] = None, width: int = 64) -> str:
        """Per-component trace timelines (``repro.run(..., trace=True)``).

        Renders an ASCII occupancy strip per component for each traced
        case (or just ``case``).  Empty string when the result carries
        no traces — tracing is opt-in, so untraced reports simply omit
        this section.
        """
        traces = getattr(self.result, "traces", None)
        if not traces:
            return ""
        from ..obs.timeline import render_timeline
        labels = [case] if case is not None else list(traces)
        sections = []
        for label in labels:
            collector = traces[label]
            sections.append(f"{self.result.name} [{label}]: timeline\n"
                            + render_timeline(collector, width=width))
        return "\n\n".join(sections)

    def profile(self, case: Optional[str] = None, top: int = 10,
                sort: str = "cumulative") -> str:
        """Top-N profile entries (``repro.run(..., profile=True)``).

        Renders the ``top`` hottest functions per profiled case (or just
        ``case``), sorted by ``sort`` (any :mod:`pstats` sort key, e.g.
        ``"cumulative"`` or ``"tottime"``).  Empty string when the
        result carries no profiles — profiling is opt-in, so unprofiled
        reports simply omit this section.
        """
        profiles = (getattr(self.result, "stats", None) or {}).get("profiles")
        if not profiles:
            return ""
        import io
        import pstats
        labels = [case] if case is not None else list(profiles)
        sections = []
        for label in labels:
            path = profiles[label]
            buffer = io.StringIO()
            stats = pstats.Stats(path, stream=buffer)
            stats.sort_stats(sort).print_stats(top)
            body = "\n".join(
                line for line in buffer.getvalue().splitlines()
                if line.strip())
            sections.append(f"{self.result.name} [{label}]: "
                            f"profile ({path})\n{body}")
        return "\n\n".join(sections)

    def render(self) -> str:
        """Every non-empty section, blank-line separated."""
        sections = [self.performance(), self.breakdown(),
                    self.reliability(), self.latency()]
        return "\n\n".join(s for s in sections if s)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<Report {self.result.name!r}>"


def comparison_table(name: str,
                     rows: Iterable[Tuple[str, float, Optional[float]]]) -> str:
    """Paper-vs-measured comparison (for EXPERIMENTS.md)."""
    formatted: List[List[str]] = []
    for label, measured, paper in rows:
        formatted.append([
            label,
            f"{measured:.3f}",
            "-" if paper is None else f"{paper:.3f}",
        ])
    return f"{name}: paper vs measured\n" + render_table(
        ["metric", "measured", "paper"], formatted)


def bar_chart(title: str, rows: Sequence[Tuple[str, float]],
              width: int = 40, ceiling: Optional[float] = None) -> str:
    """Horizontal ASCII bars — the shape of the paper's figures.

    ``rows`` are (label, value) pairs; bars scale so the largest value
    (or ``ceiling``) spans ``width`` characters.
    """
    if width < 1:
        raise ValueError("width must be positive")
    values = [value for _, value in rows]
    top = ceiling if ceiling is not None else (max(values) if values else 1.0)
    top = top or 1.0
    label_width = max((len(label) for label, _ in rows), default=0)
    lines = [title]
    for label, value in rows:
        filled = int(round(min(value, top) / top * width))
        bar = "#" * filled + ("" if filled else "|")
        lines.append(f"{label:>{label_width}}  {bar} {value:.3f}")
    return "\n".join(lines)


def performance_bars(result: BenchmarkResult) -> str:
    """The three figure metrics as bar groups (Figure 3/5/7... style)."""
    sections = []
    for metric, getter in (
            ("execution time (normalized)", result.normalized_time),
            ("host utilization", result.utilization),
            ("host I/O traffic (normalized)", result.normalized_traffic)):
        rows = [(label, getter(label)) for label in _cluster_config.CASE_ORDER
                if label in result.cases]
        sections.append(bar_chart(f"{result.name}: {metric}", rows,
                                  ceiling=max(1.0, max(v for _, v in rows))))
    return "\n\n".join(sections)
