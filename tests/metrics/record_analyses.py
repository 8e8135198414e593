"""Oracle: the footprint, postmortem and latency analyses as they were
while the trace was objects (until ISSUE 23; ``build_timeline`` and
``byte_seconds`` were public in ``repro.metrics`` until then, and had no
caller left in ``src/``) — every function here walks
``ItemTrace`` / ``IterationTrace`` records through the recorder's reading
API, so it runs on the ``object_recorder.ObjectRecorder`` oracle and,
through the materialising views, on the column recorder too. The
versions in ``src/`` read the columns in place and must agree with these
bit for bit.
"""

from __future__ import annotations

from functools import cached_property
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import TraceError
from repro.metrics.events import ItemTrace
from repro.metrics.footprint import Timeline, timeline_from_intervals

def build_timeline(
    items: Iterable[ItemTrace],
    t0: float,
    t1: float,
    predicate: Optional[Callable[[ItemTrace], bool]] = None,
    end_override: Optional[Callable[[ItemTrace], Optional[float]]] = None,
) -> Timeline:
    """Step function of total bytes held by ``items`` over ``[t0, t1]``.

    Parameters
    ----------
    predicate:
        Keep only items for which it returns True (e.g. one channel, or
        only successful items for the IGC bound).
    end_override:
        Map an item to a custom lifetime end (e.g. last-get time for IGC);
        ``None`` falls back to ``t_free`` (or the horizon ``t1``).
    """
    if predicate is not None:
        items = [item for item in items if predicate(item)]
    elif not isinstance(items, (list, tuple)):
        items = list(items)
    if not items:
        if t1 < t0:
            raise ValueError(f"horizon t1={t1} before t0={t0}")
        return Timeline(np.array([t0, t1]), np.array([0.0]))
    starts = np.asarray([item.t_alloc for item in items], dtype=float)
    if end_override is not None:
        ends_list = []
        for item in items:
            end = end_override(item)
            if end is None:
                end = item.t_free if item.t_free is not None else t1
            ends_list.append(end)
        ends = np.asarray(ends_list, dtype=float)
    else:
        ends = np.asarray(
            [t1 if item.t_free is None else item.t_free for item in items],
            dtype=float,
        )
    sizes = np.asarray([item.size for item in items], dtype=float)
    return timeline_from_intervals(starts, ends, sizes, t0, t1)


def byte_seconds(items: Iterable[ItemTrace], horizon: float,
                 predicate: Optional[Callable[[ItemTrace], bool]] = None) -> float:
    """Total ``size * lifetime`` over the selected items."""
    total = 0.0
    for item in items:
        if predicate is not None and not predicate(item):
            continue
        end = item.t_free
        if end is None:
            end = horizon
        dt = end - item.t_alloc
        if dt > 0.0:
            total += item.size * dt
    return total


#: Marks "anchor not resolvable in the forward pass" during the sweep.
_PENDING = object()


def _oldest_source_anchor(recorder) -> Dict[int, float]:
    """For every item, the creation time of its *oldest* source ancestor.

    A *source* item has no lineage parents (it was produced by a source
    thread from outside data — e.g. a camera frame). Lineage follows time,
    so in a live recorder the items dict (allocation order) already lists
    every parent before its children and one forward pass resolves all
    anchors; items whose parents appear later (possible in reloaded
    traces with reordered tables) fall back to an explicit memoized stack.
    Cycles are impossible.
    """
    anchors: Dict[int, float] = {}
    items = recorder.items
    deferred: List[int] = []
    for item_id, trace in items.items():
        parents = trace.parents
        if not parents:
            anchors[item_id] = trace.t_alloc
            continue
        best = None
        for p in parents:
            if p in anchors:
                a = anchors[p]
                if a is not None and (best is None or a < best):
                    best = a
            elif p in items:
                deferred.append(item_id)
                best = _PENDING
                break
            else:
                anchors[p] = None  # type: ignore[assignment]
        if best is not _PENDING:
            anchors[item_id] = best if best is not None else trace.t_alloc
    for item_id in deferred:
        if item_id in anchors:
            continue
        stack = [item_id]
        while stack:
            top = stack[-1]
            if top in anchors:
                stack.pop()
                continue
            trace = items.get(top)
            if trace is None:
                anchors[top] = None  # type: ignore[assignment]
                stack.pop()
                continue
            parents = trace.parents
            if not parents:
                anchors[top] = trace.t_alloc
                stack.pop()
                continue
            missing = [p for p in parents if p not in anchors]
            if missing:
                stack.extend(missing)
                continue
            valid = [anchors[p] for p in parents if anchors[p] is not None]
            anchors[top] = min(valid) if valid else trace.t_alloc
            stack.pop()
    return anchors


def latency_samples(recorder, warmup: float = 0.0) -> List[float]:
    """One latency sample per item consumed by a sink iteration.

    ``warmup`` discards sink iterations ending before that time — useful
    to exclude the feedback loop's cold start (before the first
    summary-STP has propagated, producers run unthrottled).
    """
    anchors = _oldest_source_anchor(recorder)
    samples: List[float] = []
    for it in recorder.sink_iterations():
        if it.t_end < warmup:
            continue
        for item_id in it.inputs:
            anchor = anchors.get(item_id)
            if anchor is not None:
                samples.append(it.t_end - anchor)
    return samples


def latency_samples_by_thread(
    recorder, warmup: float = 0.0
) -> Dict[str, List[float]]:
    """Latency samples grouped by the sink thread that delivered them.

    Multi-tenant runs have one sink per tenant (namespaced thread names),
    so grouping by ``it.thread`` yields per-tenant latency distributions
    from a single shared trace.
    """
    anchors = _oldest_source_anchor(recorder)
    grouped: Dict[str, List[float]] = {}
    for it in recorder.sink_iterations():
        if it.t_end < warmup:
            continue
        for item_id in it.inputs:
            anchor = anchors.get(item_id)
            if anchor is not None:
                grouped.setdefault(it.thread, []).append(it.t_end - anchor)
    return grouped


def throughput_fps(recorder, warmup: float = 0.0) -> float:
    """Completed sink iterations per second over the (post-warmup) run."""
    duration = recorder.duration - warmup
    if duration <= 0:
        return 0.0
    count = sum(1 for it in recorder.sink_iterations() if it.t_end >= warmup)
    return count / duration


def output_times(recorder, warmup: float = 0.0) -> List[float]:
    """Completion times of sink iterations (the output-frame instants)."""
    return sorted(
        it.t_end for it in recorder.sink_iterations() if it.t_end >= warmup
    )


class RecordPostmortem:
    """``PostmortemAnalyzer`` as it was: every pass walks record objects."""

    def __init__(self, recorder) -> None:
        if recorder.t_end is None:
            raise TraceError("finalize the recorder before analysis")
        self.recorder = recorder
        self.horizon = recorder.t_end

    # -- success marking ----------------------------------------------------
    @cached_property
    def delivered_ids(self) -> FrozenSet[int]:
        """Items consumed directly by sink iterations."""
        out: Set[int] = set()
        for it in self.recorder.sink_iterations():
            out.update(it.inputs)
        return frozenset(out)

    @cached_property
    def successful_ids(self) -> FrozenSet[int]:
        """Delivered items plus their full lineage-ancestor closure."""
        items = self.recorder.items
        success: Set[int] = set(self.delivered_ids)
        stack = list(success)
        while stack:
            trace = items.get(stack.pop())
            if trace is None:
                continue
            for parent in trace.parents:
                if parent not in success:
                    success.add(parent)
                    stack.append(parent)
        return frozenset(success)

    def is_successful(self, item_id: int) -> bool:
        return item_id in self.successful_ids

    # -- cached per-item interval arrays ------------------------------------
    @cached_property
    def _item_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t_alloc, t_free-or-horizon, size) arrays in allocation order.

        Extracted once per analyzer; every whole-trace footprint and
        byte-second aggregate below reads these instead of re-walking the
        item table.
        """
        items = list(self.recorder.items.values())
        horizon = self.horizon
        starts = np.asarray([item.t_alloc for item in items], dtype=float)
        ends = np.asarray(
            [horizon if item.t_free is None else item.t_free for item in items],
            dtype=float,
        )
        sizes = np.asarray([item.size for item in items], dtype=float)
        return starts, ends, sizes

    @cached_property
    def _success_mask(self) -> np.ndarray:
        """Row-aligned with :attr:`_item_arrays`: True iff item successful."""
        success = self.successful_ids
        return np.asarray(
            [item_id in success for item_id in self.recorder.items],
            dtype=bool,
        )

    # -- wasted memory ----------------------------------------------------
    @cached_property
    def total_byte_seconds(self) -> float:
        starts, ends, sizes = self._item_arrays
        if len(starts) == 0:
            return 0.0
        dts = ends - starts
        # cumsum (not np.sum, which pairs) keeps the accumulation order of
        # the reference ``total += size * dt`` loop — bit-for-bit stable.
        terms = (sizes * dts)[dts > 0.0]
        return float(np.cumsum(terms)[-1]) if len(terms) else 0.0

    @cached_property
    def wasted_byte_seconds(self) -> float:
        starts, ends, sizes = self._item_arrays
        if len(starts) == 0:
            return 0.0
        dts = ends - starts
        terms = (sizes * dts)[(dts > 0.0) & ~self._success_mask]
        return float(np.cumsum(terms)[-1]) if len(terms) else 0.0

    @property
    def wasted_memory_fraction(self) -> float:
        """The paper's "% of Mem. Wasted" (0..1)."""
        total = self.total_byte_seconds
        if total <= 0:
            return 0.0
        return self.wasted_byte_seconds / total

    # -- wasted computation -------------------------------------------------
    @cached_property
    def total_compute(self) -> float:
        return sum(it.compute for it in self.recorder.iterations)

    @cached_property
    def wasted_compute(self) -> float:
        success = self.successful_ids
        wasted = 0.0
        for it in self.recorder.iterations:
            if it.is_sink:
                continue  # displaying results is always useful work
            outputs = it.outputs
            if outputs:
                for o in outputs:
                    if o in success:
                        break
                else:
                    wasted += it.compute
        return wasted

    @property
    def wasted_computation_fraction(self) -> float:
        """The paper's "% of Comp. Wasted" (0..1)."""
        total = self.total_compute
        if total <= 0:
            return 0.0
        return self.wasted_compute / total

    # -- footprints -------------------------------------------------------
    def footprint(self, channel: str | None = None) -> Timeline:
        """Measured memory footprint (step function) of the run.

        Channel-restricted footprints read the recorder's channel index
        instead of filtering the full item table, so per-channel sweeps
        stay linear in the trace size overall.
        """
        if channel is None:
            starts, ends, sizes = self._item_arrays
            return timeline_from_intervals(
                starts, ends, sizes, self.recorder.t_start, self.horizon
            )
        items = self.recorder.items_of_channel(channel)
        return build_timeline(items, self.recorder.t_start, self.horizon)

    @cached_property
    def _last_use_end(self) -> Dict[int, float]:
        """item_id -> end time of the last iteration that consumed it.

        This is the earliest instant even an ideal collector could free a
        consumed item: the consumer is still computing on it until its
        iteration ends (the paper counts "items in various stages of
        processing").
        """
        out: Dict[int, float] = {}
        for it in self.recorder.iterations:
            for item_id in it.inputs:
                prev = out.get(item_id)
                if prev is None or it.t_end > prev:
                    out[item_id] = it.t_end
        return out

    def ideal_footprint(self) -> Timeline:
        """The IGC lower-bound footprint timeline.

        Successful items only, each alive from allocation to the end of
        the last iteration that consumed it (never-gotten items contribute
        nothing — IGC "eliminates all unnecessary computations and
        associated memory usage").
        """
        success = self.successful_ids
        last_use = self._last_use_end

        def end_at_last_use(item) -> float | None:
            end = last_use.get(item.item_id)
            if end is not None:
                return end
            return item.last_get_time()

        eligible = [
            item for item in self.recorder.items.values()
            if item.item_id in success and item.gets
        ]
        return build_timeline(
            eligible,
            self.recorder.t_start,
            self.horizon,
            end_override=end_at_last_use,
        )

    # -- per-thread waste attribution ---------------------------------------
    def thread_waste_report(self) -> Dict[str, dict]:
        """Per-thread compute decomposition: useful vs wasted seconds.

        Answers "which stage burned the most CPU on dropped data" — the
        actionable form of the fig.-7 aggregate. Sink iterations are
        always useful; an iteration with outputs is wasted iff none of
        its outputs reached the pipeline end (transitively).
        """
        success = self.successful_ids
        out: Dict[str, dict] = {}
        for it in self.recorder.iterations:
            entry = out.get(it.thread)
            if entry is None:
                entry = out[it.thread] = {
                    "compute": 0.0, "wasted": 0.0, "iterations": 0,
                    "wasted_iterations": 0,
                }
            entry["compute"] += it.compute
            entry["iterations"] += 1
            if it.is_sink:
                continue
            outputs = it.outputs
            if outputs:
                for o in outputs:
                    if o in success:
                        break
                else:
                    entry["wasted"] += it.compute
                    entry["wasted_iterations"] += 1
        for entry in out.values():
            entry["wasted_fraction"] = (
                entry["wasted"] / entry["compute"] if entry["compute"] else 0.0
            )
        return out

    # -- per-channel breakdown ---------------------------------------------
    def channel_report(self) -> Dict[str, dict]:
        """Per-channel puts/gets/skips/footprint summary (diagnostics)."""
        success = self.successful_ids
        out: Dict[str, dict] = {}
        for channel in self.recorder.channels():
            items = self.recorder.items_of_channel(channel)
            timeline = self.footprint(channel)
            out[channel] = {
                "items": len(items),
                "bytes_mean": timeline.mean(),
                "bytes_peak": timeline.peak(),
                "wasted_items": sum(
                    1 for item in items if item.item_id not in success
                ),
            }
        return out
