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

Each reads the recorder's reducer only — the item lineage and the sink
table, one row per sink iteration with its end time and inputs — so it
runs the same on a trace kept without rows (``trace_rows=False``).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Sequence

from repro.metrics.recorder import TraceRecorder, ragged

_NAN = float("nan")


def _oldest_source_anchor(recorder: TraceRecorder) -> array:
    """Per item row, the creation time of its *oldest* source ancestor.

    A *source* item has no lineage parents (it was produced by a source
    thread from outside data — e.g. a camera frame). Lineage follows time,
    so in a live recorder the item table (allocation order) already lists
    every parent before its children and one forward pass resolves all
    anchors; items whose parents appear later (possible in reloaded
    traces with reordered tables) wait for the next pass. A parent that
    is in no table anchors nothing. NaN marks a row left unresolved,
    which only a lineage cycle does.
    """
    t_alloc = recorder.item_t_alloc
    flat, ends = recorder.item_parents, recorder.item_parents_end
    row_of = recorder.row_of
    first, base, count = recorder.tail_run()
    anchors = array("d", [_NAN]) * len(t_alloc)
    pending: Sequence[int] = range(len(t_alloc))
    while pending:
        deferred: List[int] = []
        for row in pending:
            best = None
            for p in flat[ends[row - 1] if row else 0:ends[row]]:  # ragged()
                off = p - first  # row_of(p), inlined for the tail run
                p_row = base + off if 0 <= off < count else row_of(p)
                if p_row is None:
                    continue
                a = anchors[p_row]
                if a != a:  # NaN: not resolved yet
                    deferred.append(row)
                    break
                if best is None or a < best:
                    best = a
            else:
                anchors[row] = best if best is not None else t_alloc[row]
        if len(deferred) == len(pending):
            break  # a lineage cycle: no trace has one; leave it unanchored
        pending = deferred
    return anchors


def sink_latencies(recorder: TraceRecorder, warmup: float = 0.0):
    """``(sinks, latencies)``: one entry per item consumed by a sink
    iteration ending at or after ``warmup``, in delivery order — the
    iteration's index in the recorder's sink table (``sink_iter`` /
    ``sink_t_end``) and the item's latency."""
    anchors = _oldest_source_anchor(recorder)
    row_of = recorder.row_of
    first, base, count = recorder.tail_run()
    t_ends = recorder.sink_t_end
    flat, ends = recorder.sink_inputs, recorder.sink_inputs_end
    sinks: List[int] = []
    latencies: List[float] = []
    for k, t_end in enumerate(t_ends):
        if t_end < warmup:
            continue
        for item_id in ragged(flat, ends, k):
            off = item_id - first  # row_of(item_id), inlined for the tail run
            at = base + off if 0 <= off < count else row_of(item_id)
            if at is None:
                continue
            anchor = anchors[at]
            if anchor == anchor:  # not NaN
                sinks.append(k)
                latencies.append(t_end - anchor)
    return sinks, latencies


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
    sinks, samples = sink_latencies(recorder, warmup)
    rows = recorder.sink_iter
    grouped: Dict[str, List[float]] = {}
    for thread, sample in zip(recorder.threads_of([rows[k] for k in sinks]),
                              samples):
        grouped.setdefault(thread, []).append(sample)
    return grouped


def latency_stats(recorder: TraceRecorder, warmup: float = 0.0) -> tuple:
    """(mean, std) of latency in seconds; (nan, nan) with no deliveries."""
    samples = latency_samples(recorder, warmup)
    if not samples:
        return float("nan"), float("nan")
    import numpy as np

    arr = np.asarray(samples)
    return float(arr.mean()), float(arr.std())


def latency_percentiles(
    recorder: TraceRecorder,
    percentiles=(50.0, 90.0, 99.0),
    warmup: float = 0.0,
) -> Dict[float, float]:
    """Latency percentiles in seconds (nan-valued with no deliveries)."""
    samples = latency_samples(recorder, warmup)
    return {p: percentile(samples, p) for p in percentiles}


def percentile(samples: Iterable[float], q: float) -> float:
    """``numpy.percentile(samples, q)`` bit for bit, without numpy: its
    default ``linear`` method in its own float sequence. nan with no
    samples."""
    xs = sorted(samples)
    n = len(xs)
    if not n:
        return float("nan")
    index = (n - 1) * (q / 100)
    lo = int(index)
    if lo >= n - 1:  # numpy clamps both neighbours to the last sample
        a = b = xs[-1]
        t = index + 1
    else:
        a, b = xs[lo], xs[lo + 1]
        t = index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def throughput_fps(recorder: TraceRecorder, warmup: float = 0.0) -> float:
    """Completed sink iterations per second over the (post-warmup) run."""
    duration = recorder.duration - warmup
    if duration <= 0:
        return 0.0
    return len(output_times(recorder, warmup)) / duration


def output_times(recorder: TraceRecorder, warmup: float = 0.0) -> List[float]:
    """Completion times of sink iterations (the output-frame instants)."""
    return sorted(t_end for t_end in recorder.sink_t_end if t_end >= warmup)


def jitter(recorder: TraceRecorder, warmup: float = 0.0) -> float:
    """Std deviation of inter-output intervals (seconds); nan if < 3 outputs."""
    times = output_times(recorder, warmup)
    if len(times) < 3:
        return float("nan")
    import numpy as np

    return float(np.std(np.diff(times)))
