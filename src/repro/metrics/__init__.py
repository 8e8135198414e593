"""Measurement infrastructure and postmortem analysis (paper §4).

The recorder, the trace file format and the Gantt chart load with the
package. The analyses (``control``, ``footprint``, ``performance``,
``postmortem``) load with the first of their names used: all but
``performance`` import numpy at module top, and a run that only records
never needs them.
"""

from repro.lazy import lazy_exports
from repro.metrics.events import ItemTrace, IterationTrace, StpSample, Touch
from repro.metrics.faultlog import (
    FaultEventLog,
    FaultRecord,
    SymptomEvent,
)
from repro.metrics.gantt import activity_buckets, gantt, thread_utilization
from repro.metrics.recorder import TraceRecorder
from repro.metrics.trace_io import (
    load_trace,
    merge_traces,
    rebase_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)

_ANALYSES = {
    "control": ("ControlSeries", "control_series", "convergence_ratio",
                "settling_time", "smoothness", "steady_state", "throttle_duty",
                "tracking_error"),
    "footprint": ("Timeline",),
    "performance": ("jitter", "latency_percentiles", "latency_samples",
                    "latency_stats", "output_times", "throughput_fps"),
    "postmortem": ("PostmortemAnalyzer",),
}
_LAZY = {name: f"repro.metrics.{module}"
         for module, names in _ANALYSES.items() for name in names}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

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
