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

Each reads what the recorder keeps in every run — each item's latency
anchor, folded in when the item was allocated, and the sink table, one
row per sink iteration with its thread, end time and inputs — so it
runs the same on a trace kept without rows (``trace_rows=False``).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Sequence, Tuple

from repro.metrics.recorder import TraceRecorder, ragged


def sink_latencies(recorder: TraceRecorder,
                   warmup: float = 0.0) -> Tuple[array, array]:
    """``(sinks, latencies)``: one entry per item consumed by a sink
    iteration ending at or after ``warmup``, in delivery order — the
    iteration's index in the recorder's sink table (``sink_thread`` /
    ``sink_t_end``) and the item's latency."""
    anchors = recorder.anchors()
    row_of = recorder.row_of
    first, base, count = recorder.tail_run()
    flat, ends = recorder.sink_inputs, recorder.sink_inputs_end
    sinks, latencies = array("i"), array("d")
    for k, t_end in enumerate(recorder.sink_t_end):
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


def latency_samples(recorder: TraceRecorder, warmup: float = 0.0) -> array:
    """One latency sample per item consumed by a sink iteration.

    ``warmup`` discards sink iterations ending before that time — useful
    to exclude the feedback loop's cold start (before the first
    summary-STP has propagated, producers run unthrottled).
    """
    return sink_latencies(recorder, warmup)[1]


def latency_samples_by_thread(
    recorder: TraceRecorder, warmup: float = 0.0
) -> Dict[str, array]:
    """Latency samples grouped by the sink thread that delivered them.

    Multi-tenant runs have one sink per tenant (namespaced thread names),
    so grouping by the iteration's thread yields per-tenant latency
    distributions from a single shared trace.
    """
    sinks, samples = sink_latencies(recorder, warmup)
    codes = recorder.sink_thread
    by_code: Dict[int, array] = {}
    for k, sample in zip(sinks, samples):
        code = codes[k]
        group = by_code.get(code)
        if group is None:
            group = by_code[code] = array("d")
        group.append(sample)
    return dict(zip(recorder.names_of(by_code), by_code.values()))


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
    samples; a ``q`` outside [0, 100] raises ``ValueError``, as numpy's."""
    if not 0 <= q <= 100:  # NaN too
        raise ValueError("Percentiles must be in the range [0, 100]")
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


def output_times(recorder: TraceRecorder, warmup: float = 0.0) -> Sequence[float]:
    """Completion times of sink iterations (the output-frame instants)."""
    return sorted(t_end for t_end in recorder.sink_t_end if t_end >= warmup)


def jitter(recorder: TraceRecorder, warmup: float = 0.0) -> float:
    """Std deviation of inter-output intervals (seconds); nan if < 3 outputs."""
    times = output_times(recorder, warmup)
    if len(times) < 3:
        return float("nan")
    import numpy as np

    return float(np.std(np.diff(times)))
