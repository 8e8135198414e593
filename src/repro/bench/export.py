"""Export helpers: experiment grids to CSV, traces to comparison reports."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bench.experiments import PolicyAggregate
from repro.metrics.performance import jitter, latency_stats, throughput_fps
from repro.metrics.postmortem import PostmortemAnalyzer
from repro.metrics.recorder import TraceRecorder

#: Per-run scalar columns exported to CSV, in order.
RUN_COLUMNS = (
    "config", "policy", "seed", "horizon",
    "mem_mean", "mem_std", "mem_peak", "igc_mean", "igc_std",
    "wasted_memory", "wasted_computation",
    "throughput", "latency_mean", "latency_std", "jitter",
    "frames_produced", "frames_delivered",
)


def grid_to_csv(grid: Dict[Tuple[str, str], PolicyAggregate]) -> str:
    """One CSV row per individual run in the grid (long format)."""
    lines = [",".join(RUN_COLUMNS)]
    for (_config, _policy), agg in sorted(grid.items()):
        for run in agg.runs:
            lines.append(",".join(_csv_cell(getattr(run, c)) for c in RUN_COLUMNS))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summarize_trace(recorder: TraceRecorder) -> Dict[str, float]:
    """The standard scalar metric set for one finalized trace."""
    pm = PostmortemAnalyzer(recorder)
    lat_mean, lat_std = latency_stats(recorder)
    return {
        "duration_s": recorder.duration,
        "items": float(len(recorder.item_t_alloc)),
        "iterations": float(len(recorder.iter_thread)),
        "mem_mean_bytes": pm.footprint().mean(),
        "mem_std_bytes": pm.footprint().std(),
        "igc_mean_bytes": pm.ideal_footprint().mean(),
        "wasted_memory": pm.wasted_memory_fraction,
        "wasted_computation": pm.wasted_computation_fraction,
        "throughput_fps": throughput_fps(recorder),
        "latency_mean_s": lat_mean,
        "latency_std_s": lat_std,
        "jitter_s": jitter(recorder),
    }


def compare_traces(a: TraceRecorder, b: TraceRecorder,
                   label_a: str = "A", label_b: str = "B") -> str:
    """Side-by-side metric comparison of two finalized traces."""
    from repro.bench.report import format_table

    sa, sb = summarize_trace(a), summarize_trace(b)
    rows: List[List[object]] = []
    for key in sa:
        va, vb = sa[key], sb[key]
        if va == va and va != 0:  # not-nan, nonzero
            ratio: object = vb / va
        else:
            ratio = float("nan")
        rows.append([key, va, vb, ratio])
    return format_table(
        ["metric", label_a, label_b, f"{label_b}/{label_a}"],
        rows,
        title=f"trace comparison: {label_a} vs {label_b}",
    )
