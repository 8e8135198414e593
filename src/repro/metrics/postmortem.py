"""Postmortem analysis: success marking, wasted resources, the IGC bound.

The paper's measurement infrastructure marks "items that do not make it to
the end of the pipeline ... to differentiate between wasted and successful
memory and computations" (§4). We reconstruct that marking from lineage:

* an item is **delivered** if a sink iteration consumed it;
* an item is **successful** if it is delivered or is an ancestor (through
  lineage parents) of a delivered item — its data reached the end;
* everything else (skipped frames, masks computed for dropped frames, ...)
  is **wasted**.

From the marking:

* ``% wasted memory``   = wasted byte-seconds / total byte-seconds;
* ``% wasted computation`` = compute seconds of iterations none of whose
  outputs are successful / total compute seconds (source iterations whose
  frame got dropped are wasted; sink iterations are always useful);
* the **Ideal GC (IGC)** bound [Mandviwala et al., LCPC 2002]: the
  footprint of a hypothetical collector that (a) never stores unsuccessful
  items at all and (b) frees every successful item immediately after its
  last get — "eliminates all unnecessary computations and associated
  memory usage". Not realizable (requires future knowledge); computed here
  from the trace.

Every pass below is O(items + iterations) and reads the recorder's
columns in place (no trace record is built): the per-channel breakdowns
go through the recorder's channel index instead of rescanning the item
table per channel, and the byte-second sums run over array copies of
the columns. Accumulation *order* is everywhere identical to the naive
implementation over records, so derived metrics are bit-for-bit stable
across the optimization (the sweep cache keys rely on this).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np

from repro.errors import TraceError
from repro.metrics.footprint import Timeline, timeline_from_intervals
from repro.metrics.recorder import TraceRecorder, ragged


class PostmortemAnalyzer:
    """Derives every resource metric of the paper from one run's trace."""

    def __init__(self, recorder: TraceRecorder) -> None:
        if recorder.t_end is None:
            raise TraceError("finalize the recorder before analysis")
        self.recorder = recorder
        self.horizon = recorder.t_end

    # -- success marking ----------------------------------------------------
    @cached_property
    def delivered_ids(self) -> FrozenSet[int]:
        """Items consumed directly by sink iterations."""
        rec = self.recorder
        out: Set[int] = set()
        for row in rec.sink_rows():
            out.update(ragged(rec.iter_inputs, rec.iter_inputs_end, row))
        return frozenset(out)

    @cached_property
    def successful_ids(self) -> FrozenSet[int]:
        """Delivered items plus their full lineage-ancestor closure."""
        rows = self.recorder.item_row
        flat, ends = self.recorder.item_parents, self.recorder.item_parents_end
        success: Set[int] = set(self.delivered_ids)
        stack = list(success)
        while stack:
            row = rows.get(stack.pop())
            if row is None:
                continue
            for parent in flat[ends[row - 1] if row else 0:ends[row]]:  # ragged()
                if parent not in success:
                    success.add(parent)
                    stack.append(parent)
        return frozenset(success)

    def is_successful(self, item_id: int) -> bool:
        return item_id in self.successful_ids

    # -- cached per-item interval arrays ------------------------------------
    @cached_property
    def _item_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t_alloc, t_free-or-horizon, size) arrays in allocation order,
        copied out of the columns once per analyzer (a buffer export
        would pin a column against the run's next append); every
        footprint and byte-second aggregate below reads these."""
        rec = self.recorder
        starts = np.array(rec.item_t_alloc)
        ends = np.array(rec.item_t_free)
        ends[np.isnan(ends)] = self.horizon
        sizes = np.array(rec.item_size, dtype=float)
        return starts, ends, sizes

    @cached_property
    def _success_mask(self) -> np.ndarray:
        """Row-aligned with :attr:`_item_arrays`: True iff item successful."""
        success = self.successful_ids
        return np.array([i in success for i in self.recorder.item_id], bool)

    # -- wasted memory ----------------------------------------------------
    def _byte_seconds(self, keep: np.ndarray | bool = True) -> float:
        """``size * lifetime`` summed over the item rows ``keep`` selects."""
        starts, ends, sizes = self._item_arrays
        dts = ends - starts
        # cumsum (not np.sum, which pairs) keeps the accumulation order of
        # the reference ``total += size * dt`` loop — bit-for-bit stable.
        terms = (sizes * dts)[(dts > 0.0) & keep]
        return float(np.cumsum(terms)[-1]) if len(terms) else 0.0

    @cached_property
    def total_byte_seconds(self) -> float:
        return self._byte_seconds()

    @cached_property
    def wasted_byte_seconds(self) -> float:
        return self._byte_seconds(~self._success_mask)

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
        return sum(self.recorder.iter_compute)

    @cached_property
    def _wasted_rows(self) -> List[int]:
        """Iteration rows whose compute was wasted: not a sink's (display
        is always useful work), with outputs none of which is successful."""
        rec = self.recorder
        success = self.successful_ids
        is_sink, flat = rec.iter_sink, rec.iter_outputs
        rows = []
        lo = 0
        for row, hi in enumerate(rec.iter_outputs_end):
            if lo < hi and not is_sink[row]:
                for o in flat[lo:hi]:
                    if o in success:
                        break
                else:
                    rows.append(row)
            lo = hi
        return rows

    @cached_property
    def wasted_compute(self) -> float:
        compute = self.recorder.iter_compute
        wasted = 0.0
        for row in self._wasted_rows:
            wasted += compute[row]
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
        """Measured memory footprint (step function) of the run, or of one
        channel — through the recorder's channel index, so per-channel
        sweeps stay linear in the trace size overall."""
        rows: slice | np.ndarray = slice(None)
        if channel is not None:
            rows = np.array(self.recorder.channel_rows(channel), dtype=np.intp)
        starts, ends, sizes = self._item_arrays
        return timeline_from_intervals(
            starts[rows], ends[rows], sizes[rows],
            self.recorder.t_start, self.horizon,
        )

    @cached_property
    def _last_use_end(self) -> Dict[int, float]:
        """item_id -> end time of the last iteration that consumed it.

        This is the earliest instant even an ideal collector could free a
        consumed item: the consumer is still computing on it until its
        iteration ends (the paper counts "items in various stages of
        processing").
        """
        rec = self.recorder
        t_ends, flat = rec.iter_t_end, rec.iter_inputs
        out: Dict[int, float] = {}
        lo = 0
        for row, hi in enumerate(rec.iter_inputs_end):
            if lo < hi:
                t_end = t_ends[row]
                for item_id in flat[lo:hi]:
                    prev = out.get(item_id)
                    if prev is None or t_end > prev:
                        out[item_id] = t_end
                lo = hi
        return out

    def ideal_footprint(self) -> Timeline:
        """The IGC lower-bound footprint timeline.

        Successful items only, each alive from allocation to the end of
        the last iteration that consumed it (never-gotten items contribute
        nothing — IGC "eliminates all unnecessary computations and
        associated memory usage").
        """
        rec = self.recorder
        starts, _, sizes = self._item_arrays
        # Per item row, the time of its final get (-inf: never gotten).
        last_get = np.full(len(starts), -np.inf)
        gets = np.array(rec.touch_skip) == 0
        np.maximum.at(last_get, np.array(rec.touch_item, dtype=np.intp)[gets],
                      np.array(rec.touch_t)[gets])
        eligible = np.flatnonzero(self._success_mask & (last_get > -np.inf))
        last_use = self._last_use_end
        item_id = rec.item_id
        ends = np.array([last_use.get(item_id[row], fallback) for row, fallback
                         in zip(eligible.tolist(), last_get[eligible].tolist())])
        return timeline_from_intervals(
            starts[eligible], ends, sizes[eligible],
            rec.t_start, self.horizon,
        )

    # -- per-thread waste attribution ---------------------------------------
    def thread_waste_report(self) -> Dict[str, dict]:
        """Per-thread compute decomposition: useful vs wasted seconds.

        Answers "which stage burned the most CPU on dropped data" — the
        actionable form of the fig.-7 aggregate. Sink iterations are
        always useful; an iteration with outputs is wasted iff none of
        its outputs reached the pipeline end (transitively).
        """
        wasted = set(self._wasted_rows)
        out: Dict[str, dict] = {}
        for row, (thread, compute) in enumerate(zip(
                self.recorder.iter_thread, self.recorder.iter_compute)):
            entry = out.get(thread)
            if entry is None:
                entry = out[thread] = {
                    "compute": 0.0, "wasted": 0.0, "iterations": 0,
                    "wasted_iterations": 0,
                }
            entry["compute"] += compute
            entry["iterations"] += 1
            if row in wasted:
                entry["wasted"] += compute
                entry["wasted_iterations"] += 1
        for entry in out.values():
            entry["wasted_fraction"] = (
                entry["wasted"] / entry["compute"] if entry["compute"] else 0.0
            )
        return out

    # -- per-channel breakdown ---------------------------------------------
    def channel_report(self) -> Dict[str, dict]:
        """Per-channel puts/gets/skips/footprint summary (diagnostics)."""
        wasted = ~self._success_mask
        out: Dict[str, dict] = {}
        for channel in self.recorder.channels():
            rows = np.array(self.recorder.channel_rows(channel), dtype=np.intp)
            timeline = self.footprint(channel)
            out[channel] = {
                "items": len(rows),
                "bytes_mean": timeline.mean(),
                "bytes_peak": timeline.peak(),
                "wasted_items": int(wasted[rows].sum()),
            }
        return out
