"""In-cell measurement probes for sweep cells.

A probe runs *inside the worker process*, right after a cell's
simulation, with access to the live task graph and the trace recorder —
state that is either too heavy to ship back to the parent (the full
recorder) or not captured in :class:`~repro.bench.experiments.RunMetrics`
at all (mutable graph params such as computation-elimination counters).
It must return a flat, picklable ``{name: number}`` dict, which the
runner attaches to the cell result as ``extras``.

Probes are addressed *by name* in cell specs (strings pickle; functions
defined in benchmark modules may not exist in a freshly spawned worker),
so every probe must be registered in :data:`PROBES`, from an importable
module.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.registry import Registry

#: probe(graph, recorder, **args) -> flat dict of scalars.
Probe = Callable[..., Dict[str, float]]

PROBES: Registry[Probe] = Registry("probe")


def probe(name: str) -> Callable[[Probe], Probe]:
    """Register a probe under ``name`` (the value cell specs reference);
    the first line of its docstring is its catalog entry."""

    def register(fn: Probe) -> Probe:
        PROBES.register(name, fn, help=(fn.__doc__ or "").split("\n")[0])
        return fn

    return register


#: The tracker's upstream stages — the ones computation elimination [6]
#: would have to cancel before their (quick) iterations finish.
TRACKER_UPSTREAM = ("change_detection", "histogram",
                    "target_detect1", "target_detect2")


@probe("ce_stats")
def ce_stats(graph, recorder, threads: Sequence[str] = TRACKER_UPSTREAM):
    """Computation-elimination counters (the §3.2 prior-work ablation)."""
    ce_skips = sum(
        graph.attrs(t)["params"].get("ce_skips", 0) for t in graph.threads()
    )
    upstream_iters = sum(recorder.iteration_count(t) for t in threads)
    return {
        "ce_skips": float(ce_skips),
        "upstream_iterations": float(upstream_iters),
        "ce_fire_rate": 100.0 * ce_skips / max(1, upstream_iters + ce_skips),
    }


@probe("throttle_phases")
def throttle_phases(
    graph,
    recorder,
    thread: str = "digitizer",
    phases: Sequence[Tuple[str, float, float]] = (),
):
    """Per-phase mean throttle target and delivered fps for ``thread``.

    ``phases`` is a sequence of ``(label, t_lo, t_hi)`` windows; the
    result carries ``target:<label>`` (seconds) and ``fps:<label>``.
    """
    from repro.metrics.control import control_series
    from repro.metrics.performance import output_times

    series = control_series(recorder, thread)
    outputs = np.array(output_times(recorder))
    out: Dict[str, float] = {}
    for label, lo, hi in phases:
        mask = (series.times >= lo) & (series.times < hi)
        mask &= ~np.isnan(series.throttle_target)
        target = float(np.mean(series.throttle_target[mask])) if mask.any() \
            else float("nan")
        delivered = int(((outputs >= lo) & (outputs < hi)).sum())
        out[f"target:{label}"] = target
        out[f"fps:{label}"] = delivered / (hi - lo)
    return out


@probe("latency_phases")
def latency_phases(
    graph,
    recorder,
    phases: Sequence[Tuple[str, float, float]] = (),
    stage: str = "",
):
    """Per-phase end-to-end latency percentiles and delivered fps.

    For each ``(label, t_lo, t_hi)`` window the result carries
    ``p50:<label>``/``p95:<label>`` (seconds, over items consumed by
    sink iterations ending inside the window) and ``fps:<label>``.
    With ``stage`` naming a replicated stage, ``replicas_final`` and
    ``replicas_spawned`` report where elastic scaling ended up — the
    in-cell evidence that a latency difference came from the pool
    actually resizing.
    """
    from repro.metrics.performance import percentile, sink_latencies

    sinks, latencies = sink_latencies(recorder)
    t_ends = recorder.sink_t_end
    out: Dict[str, float] = {}
    for label, lo, hi in phases:
        samples = [latency for k, latency in zip(sinks, latencies)
                   if lo <= t_ends[k] < hi]
        delivered = sum(1 for t_end in t_ends if lo <= t_end < hi)
        out[f"p50:{label}"] = percentile(samples, 50)
        out[f"p95:{label}"] = percentile(samples, 95)
        out[f"fps:{label}"] = delivered / (hi - lo)
    if stage and stage in graph.replicated_stages():
        out["replicas_final"] = float(len(graph.replicas_of(stage)))
        out["replicas_spawned"] = float(graph.stage_spec(stage)["next_index"])
    return out


@probe("control_phases")
def control_phases(
    graph,
    recorder,
    thread: str = "digitizer",
    phases: Sequence[Tuple[str, float, float]] = (),
):
    """:func:`throttle_phases` plus per-window target jitter.

    Adds ``target_std:<label>`` (std of the throttle target within the
    window) — the signal-smoothness measurement policy comparisons need
    (``benchmarks/bench_abl_pid.py``). A separate probe so existing
    ``throttle_phases`` cells keep their extras (and hence their
    content-addressed cache keys and fingerprints) bit-identical.
    """
    from repro.metrics.control import control_series

    out = throttle_phases(graph, recorder, thread=thread, phases=phases)
    series = control_series(recorder, thread)
    for label, lo, hi in phases:
        mask = (series.times >= lo) & (series.times < hi)
        mask &= ~np.isnan(series.throttle_target)
        out[f"target_std:{label}"] = (
            float(np.std(series.throttle_target[mask])) if mask.any()
            else float("nan")
        )
    return out
