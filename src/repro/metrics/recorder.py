"""In-memory trace recorder wired into the runtime.

One :class:`TraceRecorder` instance per run. The runtime calls the
``on_*`` hooks; the analysis modules (``performance``, ``postmortem``,
``control``, ``trace_io``) read what they accumulated.

The recorder is deliberately dumb — it never aggregates during the run,
so recording cost stays O(1) per event and analysis choices stay open —
and flat: a hook appends its arguments to typed columns (``_COLUMNS``),
so a run leaves no per-event object behind for the interpreter's
collector to walk. Four tables, one row per hook call, in call order:
items (``item_*``; ``item_row`` maps an id to its row, ``item_t_free``
is NaN until ``on_free``), touches (``touch_*``, gets and skips alike;
``touch_item`` is the touched item's *row*), iterations (``iter_*``) and
STP samples (``stp_*``; ``stp_none`` flags a ``None`` summary / target,
so a recorded NaN stays a NaN). Tuple arguments are stored flattened,
the offset past each row's last entry in the ``*_end`` column
(:func:`ragged` cuts a row out). Columns are public for reading — by
``np.array(column)`` copies, never ``np.frombuffer``, which pins an
array against the next append — and written only by the hooks.

The record classes of :mod:`repro.metrics.events` are the public value
types; the views (``items``, ``iterations``, ``stp_samples``,
``iterations_of`` ...) build them on access, one at a time, each a
snapshot of its row as it is now. The groupings behind the views are
row-number indexes that catch up on the next call after new rows
arrive, so analysis code may call them freely inside loops.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import TraceError
from repro.metrics.events import ItemTrace, IterationTrace, StpSample, Touch

_NAN = float("nan")
_SUMMARY_NONE, _TARGET_NONE = 1, 2

#: Column -> ``array`` typecode; ``None``: a list of shared name strings.
_COLUMNS = {
    "item_id": "q", "item_channel": None, "item_node": None, "item_ts": "q",
    "item_size": "q", "item_producer": None, "item_parents": "q",
    "item_parents_end": "q", "item_t_alloc": "d", "item_t_free": "d",
    "touch_item": "q", "touch_conn": "q", "touch_consumer": None,
    "touch_t": "d", "touch_skip": "b",
    "iter_thread": None, "iter_t_start": "d", "iter_t_end": "d",
    "iter_compute": "d", "iter_blocked": "d", "iter_slept": "d",
    "iter_inputs": "q", "iter_inputs_end": "q", "iter_outputs": "q",
    "iter_outputs_end": "q", "iter_sink": "b",
    "stp_thread": None, "stp_t": "d", "stp_current": "d", "stp_summary": "d",
    "stp_target": "d", "stp_slept": "d", "stp_none": "b",
}


def ragged(flat: array, ends: array, row: int) -> array:
    """Row ``row`` of a flattened tuple column and its end offsets."""
    return flat[ends[row - 1] if row else 0:ends[row]]


class TraceView(Sequence):
    """Read-only sequence of trace records, each built when asked for
    (nothing is cached). ``rows`` lists the row numbers shown — an
    index's own storage, so the view grows with it — or is ``None`` for
    every row of ``table``, a column."""

    __slots__ = ("_make", "_rows", "_table")

    def __init__(self, make: Callable[[int], object], rows, table=()) -> None:
        self._make, self._rows, self._table = make, rows, table

    def _row_numbers(self):
        return range(len(self._table)) if self._rows is None else self._rows

    def __len__(self) -> int:
        return len(self._table if self._rows is None else self._rows)

    def __getitem__(self, index):
        rows = self._row_numbers()[index]
        if isinstance(index, slice):
            return TraceView(self._make, rows)
        return self._make(rows)

    def __iter__(self) -> Iterator:
        return map(self._make, self._row_numbers())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, tuple, TraceView)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))


class _ItemsView(Mapping):
    """``recorder.items``: item id -> :class:`ItemTrace`, allocation order."""

    def __init__(self, recorder: "TraceRecorder") -> None:
        self._recorder = recorder

    def __len__(self) -> int:
        return len(self._recorder.item_row)

    def __iter__(self) -> Iterator[int]:
        return iter(self._recorder.item_id)

    def __contains__(self, item_id) -> bool:
        return item_id in self._recorder.item_row

    def __getitem__(self, item_id: int) -> ItemTrace:
        return self._recorder._item_at(self._recorder.item_row[item_id])


class _RowIndex:
    """Row numbers of a table grouped by one of its columns, on demand."""

    def __init__(self, column) -> None:
        self._column, self._groups, self._done = column, {}, 0

    def groups(self) -> Dict[object, array]:
        """Key -> its rows in order, caught up with the column first."""
        column, groups = self._column, self._groups
        for row in range(self._done, len(column)):
            bucket = groups.get(column[row])
            if bucket is None:
                bucket = groups[column[row]] = array("q")
            bucket.append(row)
        self._done = len(column)
        return groups


class TraceRecorder:
    """Collects item and iteration traces for one run, as typed columns:
    the six ``on_*`` hooks append, and ``items`` / ``iterations`` /
    ``stp_samples`` / the ``*_of`` methods are read-only views that build
    :mod:`repro.metrics.events` records on access."""

    def __init__(self, record_stp: bool = True) -> None:
        self.record_stp = record_stp
        self.t_start: float = 0.0
        self.t_end: Optional[float] = None
        for name, typecode in _COLUMNS.items():
            setattr(self, name, [] if typecode is None else array(typecode))
        self.item_row: Dict[int, int] = {}
        self._iter_counters: Dict[str, int] = {}
        self._by_thread = _RowIndex(self.iter_thread)  # behind the views
        self._by_sink = _RowIndex(self.iter_sink)
        self._by_channel = _RowIndex(self.item_channel)
        self._touch_groups: Optional[tuple] = None

    # -- item lifecycle ---------------------------------------------------
    def on_alloc(self, item_id: int, channel: str, node: str, ts: int,
                 size: int, producer: str, parents: Tuple[int, ...],
                 t: float) -> None:
        rows = self.item_row
        if item_id in rows:
            raise TraceError(f"duplicate alloc for item {item_id}")
        ids = self.item_id
        rows[item_id] = len(ids)
        ids.append(item_id)
        self.item_channel.append(channel)
        self.item_node.append(node)
        self.item_ts.append(ts)
        self.item_size.append(size)
        self.item_producer.append(producer)
        flat = self.item_parents
        if parents:
            flat.extend(parents)
        self.item_parents_end.append(len(flat))
        self.item_t_alloc.append(t)
        self.item_t_free.append(_NAN)

    # on_get and on_skip spell the same five appends out twice: a shared
    # helper would be one more Python call on every channel get.
    def on_get(self, item_id: int, conn_id: int, consumer: str, t: float) -> None:
        row = self.item_row.get(item_id)
        if row is None:
            raise TraceError(f"unknown item {item_id}")
        self.touch_item.append(row)
        self.touch_conn.append(conn_id)
        self.touch_consumer.append(consumer)
        self.touch_t.append(t)
        self.touch_skip.append(0)

    def on_skip(self, item_id: int, conn_id: int, consumer: str, t: float) -> None:
        row = self.item_row.get(item_id)
        if row is None:
            raise TraceError(f"unknown item {item_id}")
        self.touch_item.append(row)
        self.touch_conn.append(conn_id)
        self.touch_consumer.append(consumer)
        self.touch_t.append(t)
        self.touch_skip.append(1)

    def on_free(self, item_id: int, t: float) -> None:
        if self.t_end is not None:
            return  # sealed; late frees come from a collected run's threads
        row = self.item_row.get(item_id)
        if row is None:
            raise TraceError(f"unknown item {item_id}")
        t_free = self.item_t_free
        was = t_free[row]
        if was == was:  # not NaN: freed already
            raise TraceError(f"double free of item {item_id}")
        if t < self.item_t_alloc[row]:
            raise TraceError(f"free before alloc for item {item_id}")
        t_free[row] = t

    # -- iterations ---------------------------------------------------------
    def on_iteration(self, thread: str, t_start: float, t_end: float,
                     compute: float, blocked: float, slept: float,
                     inputs: Tuple[int, ...], outputs: Tuple[int, ...],
                     is_sink: bool = False) -> None:
        counters = self._iter_counters
        counters[thread] = counters.get(thread, 0) + 1
        self.iter_thread.append(thread)
        self.iter_t_start.append(t_start)
        self.iter_t_end.append(t_end)
        self.iter_compute.append(compute)
        self.iter_blocked.append(blocked)
        self.iter_slept.append(slept)
        flat = self.iter_inputs
        if inputs:
            flat.extend(inputs)
        self.iter_inputs_end.append(len(flat))
        flat = self.iter_outputs
        if outputs:
            flat.extend(outputs)
        self.iter_outputs_end.append(len(flat))
        self.iter_sink.append(is_sink)

    def on_stp(self, thread: str, t: float, current_stp: float,
               summary: Optional[float], throttle_target: Optional[float],
               slept: float) -> None:
        if self.record_stp:
            self.stp_thread.append(thread)
            self.stp_t.append(t)
            self.stp_current.append(current_stp)
            self.stp_summary.append(_NAN if summary is None else summary)
            self.stp_target.append(
                _NAN if throttle_target is None else throttle_target)
            self.stp_slept.append(slept)
            self.stp_none.append((summary is None) * _SUMMARY_NONE
                                 + (throttle_target is None) * _TARGET_NONE)

    # -- run boundary ----------------------------------------------------
    def finalize(self, t_end: float) -> None:
        """Close the trace at time ``t_end``. Unfreed items stay unfreed:
        their lifetime extends to the horizon in footprint computations."""
        if self.t_end is not None:
            raise TraceError("finalize() called twice")
        self.t_end = float(t_end)

    @property
    def duration(self) -> float:
        if self.t_end is None:
            raise TraceError("trace not finalized")
        return self.t_end - self.t_start

    # -- rows, as the hooks received them --------------------------------
    def alloc_args(self, row: int) -> tuple:
        """Item row ``row`` as :meth:`on_alloc`'s positional arguments."""
        return (
            self.item_id[row], self.item_channel[row], self.item_node[row],
            self.item_ts[row], self.item_size[row], self.item_producer[row],
            tuple(ragged(self.item_parents, self.item_parents_end, row)),
            self.item_t_alloc[row],
        )

    def iteration_args(self, row: int) -> tuple:
        """Iteration row ``row`` as :meth:`on_iteration`'s arguments."""
        return (
            self.iter_thread[row], self.iter_t_start[row],
            self.iter_t_end[row], self.iter_compute[row],
            self.iter_blocked[row], self.iter_slept[row],
            tuple(ragged(self.iter_inputs, self.iter_inputs_end, row)),
            tuple(ragged(self.iter_outputs, self.iter_outputs_end, row)),
            bool(self.iter_sink[row]),
        )

    def stp_args(self, row: int) -> tuple:
        """STP row ``row`` as :meth:`on_stp`'s positional arguments."""
        none = self.stp_none[row]
        return (
            self.stp_thread[row], self.stp_t[row], self.stp_current[row],
            None if none & _SUMMARY_NONE else self.stp_summary[row],
            None if none & _TARGET_NONE else self.stp_target[row],
            self.stp_slept[row],
        )

    # -- row numbers ----------------------------------------------------------
    def iteration_count(self, thread: str) -> int:
        """Iterations ``thread`` has completed (O(1))."""
        return self._iter_counters.get(thread, 0)

    def sink_rows(self) -> Sequence:
        """Row numbers of the sink iterations, in completion order."""
        return self._by_sink.groups().get(1, ())

    def channel_rows(self, channel: str) -> Sequence:
        """Row numbers of ``channel``'s items, in allocation order."""
        return self._by_channel.groups().get(channel, ())

    def _touches_of(self, row: int) -> np.ndarray:
        """Touch-table rows of item row ``row``, in recording order (a
        stable sort by item row, redone when either table has grown)."""
        stamp = (len(self.touch_item), len(self.item_id))
        groups = self._touch_groups
        if groups is None or groups[0] != stamp:
            item_rows = np.array(self.touch_item, dtype=np.intp)
            order = np.argsort(item_rows, kind="stable")
            starts = np.searchsorted(item_rows[order], np.arange(stamp[1] + 1))
            groups = self._touch_groups = (stamp, order, starts)
        _, order, starts = groups
        return order[starts[row]:starts[row + 1]]

    # -- records, built on access -----------------------------------------
    def _item_at(self, row: int) -> ItemTrace:
        gets, skips = [], []
        for k in self._touches_of(row):
            (skips if self.touch_skip[k] else gets).append(
                Touch(self.touch_conn[k], self.touch_consumer[k],
                      self.touch_t[k]))
        t_free = self.item_t_free[row]
        return ItemTrace(*self.alloc_args(row),
                         None if t_free != t_free else t_free, gets, skips)

    def _iteration_at(self, row: int) -> IterationTrace:
        thread, *rest = self.iteration_args(row)
        index = bisect_left(self._by_thread.groups()[thread], row)
        return IterationTrace(thread, index, *rest)

    def _stp_at(self, row: int) -> StpSample:
        return StpSample(*self.stp_args(row))

    # -- read-only views ----------------------------------------------------
    @property
    def items(self) -> Mapping:
        """Item id -> :class:`ItemTrace`, in allocation order."""
        return _ItemsView(self)

    @property
    def iterations(self) -> TraceView:
        """Every :class:`IterationTrace`, in completion order."""
        return TraceView(self._iteration_at, None, self.iter_thread)

    @property
    def stp_samples(self) -> TraceView:
        """Every :class:`StpSample`, in recording order."""
        return TraceView(self._stp_at, None, self.stp_thread)

    def iterations_of(self, thread: str) -> TraceView:
        """All iterations of ``thread``, in completion order."""
        return TraceView(self._iteration_at,
                         self._by_thread.groups().get(thread, ()))

    def sink_iterations(self) -> TraceView:
        """All sink iterations, in completion order."""
        return TraceView(self._iteration_at, self.sink_rows())

    def items_of_channel(self, channel: str) -> TraceView:
        """All items of ``channel``, in allocation order."""
        return TraceView(self._item_at, self.channel_rows(channel))

    def threads(self) -> List[str]:
        """Thread names in order of first recorded iteration."""
        return list(self._by_thread.groups())

    def channels(self) -> List[str]:
        """Channel names in order of first allocation."""
        return list(self._by_channel.groups())
