"""Application-performance metrics: latency, throughput, jitter (§4).

* **Latency** — "the time it takes an image to make a trip through the
  entire pipeline": for every item a sink thread consumes, the time from
  the creation of the **oldest** *source* item in its lineage to the end
  of the sink iteration that displayed it. The oldest ancestor is the
  frame whose data traversed the longest path (e.g. frame -> motion mask
  -> detection -> display), which is exactly "a trip through the entire
  pipeline"; anchoring on the newest ancestor would only measure the last
  hop.
* **Throughput** — "the number of successful frames processed every
  second": completed sink iterations per second.
* **Jitter** — "the standard deviation of the time difference between
  successive output frames": over sink-iteration completion times.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.metrics.recorder import TraceRecorder, ragged

def _oldest_source_anchor(recorder: TraceRecorder) -> Dict[int, float]:
    """For every item, the creation time of its *oldest* source ancestor.

    A *source* item has no lineage parents (it was produced by a source
    thread from outside data — e.g. a camera frame). Lineage follows time,
    so in a live recorder the item table (allocation order) already lists
    every parent before its children and one forward pass resolves all
    anchors; items whose parents appear later (possible in reloaded
    traces with reordered tables) wait for the next pass. A parent that
    is in no table anchors nothing (``None``).
    """
    anchors: Dict[int, float] = {}
    rows = recorder.item_row
    ids, t_alloc = recorder.item_id, recorder.item_t_alloc
    flat, ends = recorder.item_parents, recorder.item_parents_end
    pending: Sequence[int] = range(len(ids))
    while pending:
        deferred: List[int] = []
        for row in pending:
            best = None
            for p in flat[ends[row - 1] if row else 0:ends[row]]:  # ragged()
                if p in anchors:
                    a = anchors[p]
                    if a is not None and (best is None or a < best):
                        best = a
                elif p in rows:
                    deferred.append(row)
                    break
                else:
                    anchors[p] = None  # type: ignore[assignment]
            else:
                anchors[ids[row]] = best if best is not None else t_alloc[row]
        if len(deferred) == len(pending):
            break  # a lineage cycle: no trace has one; leave it unanchored
        pending = deferred
    return anchors


def sink_latencies(recorder: TraceRecorder, warmup: float = 0.0):
    """``(rows, latencies)``: one entry per item consumed by a sink
    iteration ending at or after ``warmup``, in delivery order — the
    iteration's row number and the item's latency."""
    anchors = _oldest_source_anchor(recorder)
    t_ends = recorder.iter_t_end
    flat, ends = recorder.iter_inputs, recorder.iter_inputs_end
    rows: List[int] = []
    latencies: List[float] = []
    for row in recorder.sink_rows():
        t_end = t_ends[row]
        if t_end < warmup:
            continue
        for item_id in ragged(flat, ends, row):
            anchor = anchors.get(item_id)
            if anchor is not None:
                rows.append(row)
                latencies.append(t_end - anchor)
    return rows, latencies


def latency_samples(recorder: TraceRecorder, warmup: float = 0.0) -> List[float]:
    """One latency sample per item consumed by a sink iteration.

    ``warmup`` discards sink iterations ending before that time — useful
    to exclude the feedback loop's cold start (before the first
    summary-STP has propagated, producers run unthrottled).
    """
    return sink_latencies(recorder, warmup)[1]


def latency_samples_by_thread(
    recorder: TraceRecorder, warmup: float = 0.0
) -> Dict[str, List[float]]:
    """Latency samples grouped by the sink thread that delivered them.

    Multi-tenant runs have one sink per tenant (namespaced thread names),
    so grouping by the iteration's thread yields per-tenant latency
    distributions from a single shared trace.
    """
    threads = recorder.iter_thread
    grouped: Dict[str, List[float]] = {}
    for row, sample in zip(*sink_latencies(recorder, warmup)):
        grouped.setdefault(threads[row], []).append(sample)
    return grouped


def latency_stats(recorder: TraceRecorder, warmup: float = 0.0) -> tuple:
    """(mean, std) of latency in seconds; (nan, nan) with no deliveries."""
    samples = latency_samples(recorder, warmup)
    if not samples:
        return float("nan"), float("nan")
    arr = np.asarray(samples)
    return float(arr.mean()), float(arr.std())


def latency_percentiles(
    recorder: TraceRecorder,
    percentiles=(50.0, 90.0, 99.0),
    warmup: float = 0.0,
) -> Dict[float, float]:
    """Latency percentiles in seconds (nan-valued with no deliveries)."""
    samples = latency_samples(recorder, warmup)
    if not samples:
        return {p: float("nan") for p in percentiles}
    arr = np.asarray(samples)
    return {p: float(np.percentile(arr, p)) for p in percentiles}


def throughput_fps(recorder: TraceRecorder, warmup: float = 0.0) -> float:
    """Completed sink iterations per second over the (post-warmup) run."""
    duration = recorder.duration - warmup
    if duration <= 0:
        return 0.0
    return len(output_times(recorder, warmup)) / duration


def output_times(recorder: TraceRecorder, warmup: float = 0.0) -> List[float]:
    """Completion times of sink iterations (the output-frame instants)."""
    t_ends = recorder.iter_t_end
    return sorted(
        t_ends[row] for row in recorder.sink_rows() if t_ends[row] >= warmup
    )


def jitter(recorder: TraceRecorder, warmup: float = 0.0) -> float:
    """Std deviation of inter-output intervals (seconds); nan if < 3 outputs."""
    times = output_times(recorder, warmup)
    if len(times) < 3:
        return float("nan")
    return float(np.std(np.diff(times)))


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
