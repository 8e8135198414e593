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
columns (no trace record is built), so it needs a trace kept with its
rows (``trace_rows=True``): the per-channel breakdowns go
through the recorder's channel index instead of rescanning the item
table per channel, the byte-second sums run over array copies of the
columns, and the IGC end of each item was folded in while the run went.
Accumulation *order* is everywhere identical to the naive
implementation over records, so derived metrics are bit-for-bit stable
across the optimization (the sweep cache keys rely on this).
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from repro.errors import TraceError
from repro.metrics.footprint import Timeline, timeline_from_intervals
from repro.metrics.recorder import TraceRecorder


class PostmortemAnalyzer:
    """Derives every resource metric of the paper from one run's trace."""

    def __init__(self, recorder: TraceRecorder) -> None:
        if recorder.t_end is None:
            raise TraceError("finalize the recorder before analysis")
        recorder.require_rows("PostmortemAnalyzer")
        self.recorder = recorder
        self.horizon = recorder.t_end

    # -- success marking ----------------------------------------------------
    @cached_property
    def delivered_ids(self) -> FrozenSet[int]:
        """Items consumed directly by sink iterations."""
        return frozenset(self.recorder.sink_inputs)

    @cached_property
    def _success_rows(self) -> Tuple[bytearray, FrozenSet[int]]:
        """Per item row, 1 iff successful; and the successful ids no row holds."""
        rec = self.recorder
        row_of, flat, ends = rec.row_of, rec.item_parents, rec.item_parents_end
        first, base, count = rec.tail_run()
        marked, untraced = bytearray(len(rec.item_t_alloc)), set()
        stack = list(self.delivered_ids)
        while stack:
            item_id = stack.pop()
            off = item_id - first  # row_of(item_id), inlined for the tail run
            row = base + off if 0 <= off < count else row_of(item_id)
            if row is None:
                untraced.add(item_id)
            elif not marked[row]:
                marked[row] = 1
                stack += flat[ends[row - 1] if row else 0:ends[row]]  # ragged()
        return marked, frozenset(untraced)

    @cached_property
    def successful_ids(self) -> FrozenSet[int]:
        """Delivered items plus their full lineage-ancestor closure."""
        marked, untraced = self._success_rows
        return frozenset(compress(self.recorder.ids(), marked)) | untraced

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
        return np.array(self._success_rows[0], dtype=bool)

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

    def ideal_footprint(self) -> Timeline:
        """The IGC lower-bound footprint timeline.

        Successful items only, each alive from allocation to the end of
        the last iteration that consumed it — the earliest instant even an
        ideal collector could free it, as the consumer computes on it
        until then — or to its last get if none did (never-gotten items
        contribute nothing — IGC "eliminates all unnecessary computations
        and associated memory usage").
        """
        rec = self.recorder
        starts, _, sizes = self._item_arrays
        # The recorder folded each item's IGC end in as the run went: the
        # end of the last iteration that consumed it, else its last get.
        gotten = (np.array(rec.item_igc) & 1).astype(bool)
        eligible = np.flatnonzero(self._success_mask & gotten)
        return timeline_from_intervals(
            starts[eligible], np.array(rec.item_igc_end)[eligible],
            sizes[eligible], rec.t_start, self.horizon,
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
        rec = self.recorder
        out: Dict[str, dict] = {}
        for row, (thread, compute) in enumerate(zip(
                rec.threads_of(range(len(rec.iter_thread))), rec.iter_compute)):
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
