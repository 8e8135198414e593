"""Per-thread activity: ASCII Gantt rendering and time decomposition.

Turns iteration traces into a time-bucketed activity chart: for each
thread, each column shows what dominated that time bucket —

* ``#`` computing, ``.`` blocked on input, ``z`` throttle-sleeping,
  `` `` idle/other.

One glance shows the paper's §5.2 story: without ARU every stage is busy
(much of it wasted); with ARU-max the upstream stages alternate compute
with throttle sleep while consumers stay saturated.

Both read the trace's iteration rows, which a run kept without rows
(``trace_rows=False``) does not have.
"""

from __future__ import annotations

from typing import List, Optional

from repro.metrics.recorder import TraceRecorder

#: Activity glyphs in priority order (dominant wins the cell).
GLYPHS = {"compute": "#", "blocked": ".", "slept": "z", "idle": " "}


def thread_utilization(recorder: TraceRecorder, thread: str) -> dict:
    """Decomposition of one thread's time: compute/blocked/slept fractions."""
    iters = recorder.iterations_of(thread)
    if not iters:
        return {"compute": 0.0, "blocked": 0.0, "slept": 0.0, "iterations": 0}
    span = iters[-1].t_end - iters[0].t_start
    if span <= 0:
        span = float("nan")
    return {
        "compute": sum(i.compute for i in iters) / span,
        "blocked": sum(i.blocked for i in iters) / span,
        "slept": sum(i.slept for i in iters) / span,
        "iterations": len(iters),
    }


def activity_buckets(
    recorder: TraceRecorder,
    thread: str,
    n_buckets: int,
    t0: float,
    t1: float,
) -> List[str]:
    """Dominant activity per bucket for one thread."""
    import numpy as np

    edges = np.linspace(t0, t1, n_buckets + 1)
    compute = np.zeros(n_buckets)
    blocked = np.zeros(n_buckets)
    slept = np.zeros(n_buckets)

    def smear(total: float, start: float, end: float, acc: np.ndarray) -> None:
        """Distribute `total` seconds uniformly over [start, end)."""
        if total <= 0 or end <= start:
            return
        lo = np.searchsorted(edges, start, side="right") - 1
        hi = np.searchsorted(edges, end, side="left")
        lo, hi = max(lo, 0), min(hi, n_buckets)
        for b in range(lo, hi):
            seg_lo = max(start, edges[b])
            seg_hi = min(end, edges[b + 1])
            if seg_hi > seg_lo:
                acc[b] += total * (seg_hi - seg_lo) / (end - start)

    for it in recorder.iterations_of(thread):
        smear(it.compute, it.t_start, it.t_end, compute)
        smear(it.blocked, it.t_start, it.t_end, blocked)
        smear(it.slept, it.t_start, it.t_end, slept)

    cells = []
    width = (t1 - t0) / n_buckets
    for b in range(n_buckets):
        values = {
            "compute": compute[b],
            "blocked": blocked[b],
            "slept": slept[b],
        }
        dominant = max(values, key=values.__getitem__)
        if values[dominant] < 0.05 * width:
            dominant = "idle"
        cells.append(GLYPHS[dominant])
    return cells


#: Fault-marker glyphs in priority order (injection beats detection
#: beats recovery when several land in one bucket).
FAULT_GLYPHS = (("injected", "!"), ("detected", "d"), ("recovered", "r"))


def fault_markers(fault_log, n_buckets: int, t0: float, t1: float) -> List[str]:
    """One marker cell per bucket for a fault-event timeline."""
    cells = [" "] * n_buckets
    rank = {" ": -1, "r": 0, "d": 1, "!": 2}
    span = t1 - t0
    if span <= 0:
        return cells

    def mark(t: Optional[float], glyph: str) -> None:
        if t is None or not t0 <= t <= t1:
            return
        b = min(int((t - t0) / span * n_buckets), n_buckets - 1)
        if rank[glyph] > rank[cells[b]]:
            cells[b] = glyph

    for record in fault_log.records:
        mark(record.t_injected, "!")
        mark(record.t_detected, "d")
        mark(record.t_recovered, "r")
    return cells


def gantt(
    recorder: TraceRecorder,
    threads: Optional[List[str]] = None,
    width: int = 72,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    fault_log=None,
) -> str:
    """Multi-thread activity chart over ``[t0, t1]`` (defaults: whole run).

    With a :class:`~repro.metrics.faultlog.FaultEventLog` passed as
    ``fault_log``, an extra row marks fault injections (``!``),
    detections (``d``), and recoveries (``r``).
    """
    if recorder.t_end is None:
        raise ValueError("finalize the recorder before rendering")
    threads = threads or recorder.threads()
    if not threads:
        return "(no iterations recorded)"
    t0 = recorder.t_start if t0 is None else t0
    t1 = recorder.t_end if t1 is None else t1
    labels = list(threads) + (["faults"] if fault_log is not None else [])
    label_width = max(len(t) for t in labels) + 1
    lines = [
        f"activity: {GLYPHS['compute']}=compute {GLYPHS['blocked']}=blocked "
        f"{GLYPHS['slept']}=throttled ' '=idle   t=[{t0:.1f}s..{t1:.1f}s]"
    ]
    for thread in threads:
        cells = activity_buckets(recorder, thread, width, t0, t1)
        lines.append(f"{thread:<{label_width}}|{''.join(cells)}|")
    if fault_log is not None:
        cells = fault_markers(fault_log, width, t0, t1)
        lines.append(f"{'faults':<{label_width}}|{''.join(cells)}|")
        lines.append("faults: !=injected d=detected r=recovered")
    return "\n".join(lines)
