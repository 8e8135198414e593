"""Ideal Garbage Collector — the postmortem lower bound (paper §4).

*"IGC gives a theoretical lower limit for the memory footprint by
performing a postmortem analysis of the execution trace of an application.
IGC simulates a GC that can eliminate all unnecessary computations (i.e.,
computations on frames that do not make it all the way through the
pipeline) and associated memory usage. Needless to say, IGC is not
realizable in practice since it requires future knowledge of dropped
frames."*

IGC is therefore **not** a live collector: it is an analysis over a
finished run's trace. The heavy lifting lives in
:class:`repro.metrics.postmortem.PostmortemAnalyzer`; this module provides
the paper-named entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.metrics.footprint import Timeline
    from repro.metrics.recorder import TraceRecorder


@dataclass(frozen=True)
class IgcResult:
    """IGC footprint statistics for one run."""

    mean_bytes: float
    std_bytes: float
    peak_bytes: float
    timeline: Timeline


def ideal_gc_analysis(recorder: TraceRecorder) -> IgcResult:
    """Run the IGC postmortem over a finalized trace."""
    from repro.metrics.postmortem import PostmortemAnalyzer

    analyzer = PostmortemAnalyzer(recorder)
    timeline = analyzer.ideal_footprint()
    return IgcResult(
        mean_bytes=timeline.mean(),
        std_bytes=timeline.std(),
        peak_bytes=timeline.peak(),
        timeline=timeline,
    )
