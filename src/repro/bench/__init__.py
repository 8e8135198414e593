"""Experiment harness: sweep runner, result cache, tables, comparison.

The harness analyses what it runs with numpy, so its names are exported
lazily: ``import repro.bench`` loads none of its modules, and numpy
arrives with the first name used.
"""

from repro.lazy import lazy_exports

_MODULES = {
    "cache": ("DEFAULT_CACHE_DIR", "ResultCache", "canonical_repr"),
    "compare": ("PAPER", "format_shape_report", "shape_checks"),
    "export": ("RUN_COLUMNS", "compare_traces", "grid_to_csv", "summarize_trace"),
    "experiments": ("CONFIG_NAMES", "DEFAULT_HORIZON", "DEFAULT_SEEDS",
                    "POLICY_FACTORIES", "PolicyAggregate", "RunMetrics",
                    "grid_specs", "metrics_from_trace", "run_grid",
                    "run_tracker_once"),
    "identity": ("metrics_fingerprint",),
    "probes": ("PROBES", "probe"),
    "report": ("ascii_timeline", "format_table", "timeline_csv"),
    "runner": ("CellResult", "CellSpec", "SweepRunner", "SweepStats",
               "default_workers", "run_cell"),
    "tables": ("fig6_memory_table", "fig7_waste_table",
               "fig10_performance_table"),
}
_LAZY = {name: f"repro.bench.{module}"
         for module, names in _MODULES.items() for name in names}
__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
