"""Figure-reproduction harness: drivers, per-figure generators, reporting."""

from repro.bench.figures import (
    Fig1Result,
    Fig5Result,
    Fig6Result,
    Fig7Result,
    Fig8Result,
    Fig9Result,
    fig1,
    fig5,
    fig6a,
    fig6b,
    fig7,
    fig8,
    fig9,
)
from repro.bench.harness import (
    PAPER_SIZES_GB,
    RUN_CAP_SECONDS,
    ExperimentResult,
    page_size_for,
    run_experiment,
    run_grout,
    run_single_node,
    slowdown_series,
    step_ratios,
)
from repro.bench.compare import Comparison, Drift, compare_figures
from repro.bench.export import figure_to_dict, write_figure_json
from repro.bench.chrometrace import to_chrome_trace, write_chrome_trace
from repro.bench.report import format_series, format_table
from repro.bench.sweep import sweep, write_csv
from repro.bench.timeline import (
    TimelineOptions,
    render_timeline,
    utilisation_report,
)

__all__ = [
    "ExperimentResult",
    "Fig1Result",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "PAPER_SIZES_GB",
    "RUN_CAP_SECONDS",
    "fig1",
    "fig5",
    "fig6a",
    "fig6b",
    "fig7",
    "fig8",
    "fig9",
    "TimelineOptions",
    "Comparison",
    "Drift",
    "compare_figures",
    "figure_to_dict",
    "format_series",
    "format_table",
    "render_timeline",
    "sweep",
    "to_chrome_trace",
    "utilisation_report",
    "write_chrome_trace",
    "write_csv",
    "write_figure_json",
    "page_size_for",
    "run_experiment",
    "run_grout",
    "run_single_node",
    "slowdown_series",
    "step_ratios",
]
