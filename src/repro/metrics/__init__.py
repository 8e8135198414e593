"""Measurement infrastructure and postmortem analysis (paper §4)."""

from repro.metrics.control import (
    ControlSeries,
    control_series,
    convergence_ratio,
    settling_time,
    smoothness,
    steady_state,
    throttle_duty,
    tracking_error,
)
from repro.metrics.events import ItemTrace, IterationTrace, StpSample, Touch
from repro.metrics.faultlog import (
    FaultEventLog,
    FaultRecord,
    SymptomEvent,
)
from repro.metrics.gantt import activity_buckets, gantt
from repro.metrics.footprint import Timeline
from repro.metrics.performance import (
    jitter,
    latency_percentiles,
    latency_samples,
    latency_stats,
    output_times,
    thread_utilization,
    throughput_fps,
)
from repro.metrics.postmortem import PostmortemAnalyzer
from repro.metrics.recorder import TraceRecorder
from repro.metrics.trace_io import (
    load_trace,
    merge_traces,
    rebase_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)

__all__ = [
    "TraceRecorder",
    "ItemTrace",
    "IterationTrace",
    "StpSample",
    "Touch",
    "FaultEventLog",
    "FaultRecord",
    "SymptomEvent",
    "Timeline",
    "PostmortemAnalyzer",
    "latency_samples",
    "latency_stats",
    "latency_percentiles",
    "throughput_fps",
    "output_times",
    "jitter",
    "thread_utilization",
    "gantt",
    "activity_buckets",
    "ControlSeries",
    "control_series",
    "settling_time",
    "tracking_error",
    "smoothness",
    "steady_state",
    "convergence_ratio",
    "throttle_duty",
    "save_trace",
    "load_trace",
    "rebase_trace",
    "merge_traces",
    "trace_to_dict",
    "trace_from_dict",
]
