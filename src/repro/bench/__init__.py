"""Experiment harness: sweep runner, result cache, tables, comparison."""

from repro.bench.cache import DEFAULT_CACHE_DIR, ResultCache, canonical_repr
from repro.bench.compare import PAPER, format_shape_report, shape_checks
from repro.bench.export import (
    RUN_COLUMNS,
    compare_traces,
    grid_to_csv,
    summarize_trace,
)
from repro.bench.experiments import (
    CONFIG_NAMES,
    DEFAULT_HORIZON,
    DEFAULT_SEEDS,
    POLICY_FACTORIES,
    PolicyAggregate,
    RunMetrics,
    grid_specs,
    metrics_from_trace,
    run_grid,
    run_tracker_once,
)
from repro.bench.identity import metrics_fingerprint
from repro.bench.probes import PROBES, probe
from repro.bench.report import ascii_timeline, format_table, timeline_csv
from repro.bench.runner import (
    CellResult,
    CellSpec,
    SweepRunner,
    SweepStats,
    default_workers,
    run_cell,
)
from repro.bench.tables import (
    fig6_memory_table,
    fig7_waste_table,
    fig10_performance_table,
)

__all__ = [
    "run_tracker_once",
    "run_grid",
    "grid_specs",
    "metrics_from_trace",
    "CellSpec",
    "CellResult",
    "SweepRunner",
    "SweepStats",
    "run_cell",
    "default_workers",
    "metrics_fingerprint",
    "ResultCache",
    "DEFAULT_CACHE_DIR",
    "canonical_repr",
    "PROBES",
    "probe",
    "RunMetrics",
    "PolicyAggregate",
    "CONFIG_NAMES",
    "POLICY_FACTORIES",
    "DEFAULT_HORIZON",
    "DEFAULT_SEEDS",
    "fig6_memory_table",
    "fig7_waste_table",
    "fig10_performance_table",
    "format_table",
    "ascii_timeline",
    "timeline_csv",
    "PAPER",
    "shape_checks",
    "format_shape_report",
    "grid_to_csv",
    "compare_traces",
    "summarize_trace",
    "RUN_COLUMNS",
]
