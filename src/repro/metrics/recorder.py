"""In-memory trace recorder wired into the runtime.

One :class:`TraceRecorder` instance per run. The runtime calls the
``on_*`` hooks; the analysis modules (``performance``, ``postmortem``,
``control``, ``trace_io``) read what they accumulated.

The recorder is flat: a hook appends to typed columns, so a run leaves
no per-event object behind for the interpreter's collector to walk, and
each hook is O(1) in the trace it has kept. What it keeps comes in two
layers.

**The kept columns** (``_KEPT``), in every run, are what a multi-tenant
run reads — per-sink latency samples and per-thread iteration counts —
and what the hooks' own checks need, and nothing more. Per item row, in
allocation order: its allocation time, a freed flag and its latency
anchor, ``item_anchor``: the creation time of its oldest source
ancestor, folded in by ``on_alloc`` as the minimum of its parents'
anchors, or its own allocation time if no parent is in the table. A
parent not yet allocated, or not yet anchored (a ``proc`` worker's item
whose parent another worker allocated, a merge of worker traces, a
reordered file; never a ``sim`` or ``threads`` run), leaves the row NaN
and on a small pending list that :meth:`TraceRecorder.anchors` resolves
when read. Per sink iteration (``sink_*``): its thread's name code, end
time and inputs, in delivery order (what latency, throughput and jitter
read). Per thread: its iteration count.

**The rows** (``_ROWS``), kept with ``trace_rows=True`` (the default),
are everything else the hooks received, and what the postmortem reads.
Per item: its site, timestamp, size, lineage parents, free time
(``item_t_free``, NaN until ``on_free``) and its Ideal-GC end:
``item_igc`` flags whether the item was ever gotten (1) and whether an
iteration consumed it (2), and ``item_igc_end`` holds the end of the
last consuming iteration, or the last get while none consumed it (−inf:
neither), folded in by ``on_get`` and ``on_iteration`` as they come.
The touch table (``touch_*``, gets and skips alike; ``touch_item`` is
the touched item's *row*), every iteration (``iter_*``: thread, times,
compute, blocked, slept, sink flag, inputs and outputs; ``sink_iter``
is each sink iteration's row) and the STP samples (``stp_*``;
``stp_none`` flags a ``None`` summary / target, so a recorded NaN stays
a NaN). :class:`~repro.metrics.postmortem.PostmortemAnalyzer`, the views
(``items``, ``iterations``, ``stp_samples``, ``iterations_of`` ...),
``threads()`` / ``channels()``, ``save_trace``, ``merge_traces``, the
Gantt chart and ``control_series`` read them; with ``trace_rows=False``
they raise :class:`~repro.errors.TraceError` instead.

Tuple arguments are stored flattened, the offset past each row's last
entry in the ``*_end`` column (:func:`ragged` cuts a row out). Columns
are public for reading — by ``np.array(column)`` copies, never
``np.frombuffer``, which pins an array against the next append — and
written only by the hooks.

Each fact is stored once in each layer, no wider than it needs. Names
are 4-byte codes into a name table the recorder owns (``item_site``
codes an item's ``(channel, node, producer)``; ``sink_thread``,
``touch_consumer``, ``iter_thread`` and ``stp_thread`` a thread), found
by one ``dict.get`` in the hook and read back only through the
recorder's methods. Row numbers and ragged offsets are 4-byte too, so a
table holds at most 2**31 - 1 rows; item ids stay 8-byte (``proc``
workers start theirs at ``(k + 1) << 40``).

A pickle of the recorder (a ``proc`` worker's ``STATS`` report, a
cached sweep result) carries its columns, name table and id runs. With
rows it leaves out what the hooks folded from them (the latency
anchors, the pending list, the iteration counts, the IGC ends of
inputs not in the table), which :meth:`TraceRecorder.__setstate__`
folds again in row order, as the hooks did; without rows those travel,
since no row remains to fold them from. The read indexes never travel.

No column holds item ids. Ids come from one counter, so the item table
lists them in runs of consecutive ids on consecutive rows, and
:meth:`TraceRecorder.row_of` finds a row by arithmetic on the run that
holds the id: the newest run is held in plain ints, the others in three
sorted columns (first id, first row, length) it bisects, and
:meth:`TraceRecorder.id_of` bisects every run's first row. A live run
leaves one run; out-of-order ids (a threaded race, a merge of worker
traces, a hand-written trace) only make more of them.

The record classes of :mod:`repro.metrics.events` are the public value
types; the views build them on access, one at a time, each a snapshot
of its row as it is now. The groupings behind the views are row-number
indexes that catch up on the next call after new rows arrive, so
analysis code may call them freely inside loops.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Mapping, Sequence
from itertools import chain
from operator import index
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import TraceError
from repro.metrics.events import ItemTrace, IterationTrace, StpSample, Touch

if TYPE_CHECKING:
    import numpy as np

_NAN = float("nan")
_NO_USE = float("-inf")
_SUMMARY_NONE, _TARGET_NONE = 1, 2
_GOTTEN, _USED = 1, 2  # item_igc flags
_NO_LIMIT = 1 << 64  # room of a tail run no later run bounds
#: What a pickle leaves out: the name -> code map and the read indexes,
#: rebuilt on unpickling, and with rows also what the hooks fold from
#: them, folded again.
_INDEXES = ("_codes", "_by_thread", "_by_channel", "_by_stp_thread",
            "_touch_groups")
_FOLDED = ("item_anchor", "_pending_row", "_pending_parents",
           "_pending_parents_end", "_iter_counters", "_early_uses")

#: Column -> ``array`` typecode (``i``: a name code, row or offset).
#: Kept in every run: read by the latency and delivery analyses.
_KEPT = {
    "item_t_alloc": "d", "item_freed": "b", "item_anchor": "d",
    "sink_thread": "i", "sink_t_end": "d", "sink_inputs": "q",
    "sink_inputs_end": "i",
}
#: The rows: kept with ``trace_rows=True``, read by the postmortem and
#: the views.
_ROWS = {
    "item_site": "i", "item_ts": "q", "item_size": "q", "item_parents": "q",
    "item_parents_end": "i", "item_t_free": "d", "item_igc_end": "d",
    "item_igc": "b",
    "touch_item": "i", "touch_conn": "q", "touch_consumer": "i", "touch_t": "d", "touch_skip": "b",
    "iter_thread": "i", "iter_t_start": "d", "iter_t_end": "d", "iter_compute": "d",
    "iter_blocked": "d", "iter_slept": "d", "iter_sink": "b",
    "iter_inputs": "q", "iter_inputs_end": "i", "iter_outputs": "q",
    "iter_outputs_end": "i", "sink_iter": "i",
    "stp_thread": "i", "stp_t": "d", "stp_current": "d", "stp_summary": "d",
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
        return len(self._recorder.item_t_alloc)

    def __iter__(self) -> Iterator[int]:
        return self._recorder.ids()

    def __contains__(self, item_id) -> bool:
        return self._recorder.row_of(item_id) is not None

    def __getitem__(self, item_id: int) -> ItemTrace:
        row = self._recorder.row_of(item_id)
        if row is None:
            raise KeyError(item_id)
        return self._recorder._item_at(row)


class _RowIndex:
    """Row numbers of a table grouped by a column's value, or by (field
    ``part`` of) the name it codes, on demand."""

    def __init__(self, column, names=None, part=None) -> None:
        self._column, self._names, self._part = column, names, part
        self._groups, self._of_value, self._done = {}, {}, 0

    def groups(self) -> Dict[object, array]:
        """Key -> its rows in order, caught up with the column first."""
        column, of_value = self._column, self._of_value
        for row in range(self._done, len(column)):
            rows = of_value.get(column[row])
            if rows is None:
                key = column[row] if self._names is None else self._names[column[row]]
                key = key if self._part is None else key[self._part]
                rows = of_value[column[row]] = self._groups.setdefault(key, array("i"))
            rows.append(row)
        self._done = len(column)
        return self._groups


class TraceRecorder:
    """Collects item and iteration traces for one run, as typed columns:
    the six ``on_*`` hooks append, and ``items`` / ``iterations`` /
    ``stp_samples`` / the ``*_of`` methods are read-only views that build
    :mod:`repro.metrics.events` records on access.

    ``trace_rows=False`` keeps what latencies and delivery counts read
    (17 B per item, plus the sink table): every analysis of
    ``performance``, and :meth:`iteration_count`, still runs, bit for
    bit as with rows, and every hook still refuses what it refuses with
    rows; ``PostmortemAnalyzer`` and the row readers raise
    :class:`~repro.errors.TraceError`."""

    def __init__(self, trace_rows: bool = True) -> None:
        self.trace_rows = trace_rows
        self.t_start: float = 0.0
        self.t_end: Optional[float] = None
        for name, typecode in (
                {**_KEPT, **_ROWS} if trace_rows else _KEPT).items():
            setattr(self, name, array(typecode))
        # Name table: code -> thread or site, and back. Code 0 is
        # no name's, so a hook looks one up as ``get(name) or _code(name)``.
        self._names, self._codes = [None], {}
        # Id runs: ids first..first+len-1 sit on rows row..row+len-1. The
        # run the newest row extended is the tail, held in the _tail_*
        # ints (_tail_room: how far it may grow before the next run's
        # first id); the _run_* columns hold the others, sorted by id.
        self._run_first, self._run_row, self._run_len = (
            array("q"), array("q"), array("q"))
        self._run_rows_at, self._run_ids_at = array("q"), array("q")  # all, by row
        self._tail_first = self._tail_row = self._tail_len = self._tail_room = 0
        # Rows whose anchor waits for a parent (NaN in item_anchor), with
        # their parents: anchors() resolves them. A sim or threads run
        # leaves none.
        self._pending_row, self._pending_parents, self._pending_parents_end = (
            array("i"), array("q"), array("i"))
        self._iter_counters: Dict[str, int] = {}
        if trace_rows:
            # Input id -> latest end of an iteration that consumed it
            # before it was allocated (a hand-written or reordered trace;
            # a live run leaves this empty): on_alloc folds it into the
            # item's IGC end.
            self._early_uses: Dict[int, float] = {}
            self._index_rows()

    def _index_rows(self) -> None:
        """Fresh read indexes over the rows; each catches up when read."""
        self._by_thread = _RowIndex(self.iter_thread, self._names)
        self._by_channel = _RowIndex(self.item_site, self._names, 0)
        self._by_stp_thread = _RowIndex(self.stp_thread, self._names)
        self._touch_groups: Optional[tuple] = None

    def _code(self, name) -> int:
        """Code of a name the table has not seen (the hooks' slow path)."""
        self._names.append(name)
        return self._codes.setdefault(name, len(self._names) - 1)

    def require_rows(self, reader: str) -> None:
        """Raise :class:`TraceError` unless this trace kept its rows."""
        if not self.trace_rows:
            raise TraceError(
                f"{reader} reads the trace's rows, and this run kept none "
                f"(trace_rows=False); rerun with trace_rows=True")

    # -- item lifecycle ---------------------------------------------------
    def on_alloc(self, item_id: int, channel: str, node: str, ts: int,
                 size: int, producer: str, parents: Tuple[int, ...],
                 t: float) -> None:
        anchor = t  # a source item's
        if parents:
            # The oldest anchor among the parents (row_of inlined for the
            # tail run), found before this id joins a run: NaN if one is
            # not allocated yet, or not anchored yet.
            first, base, count = self._tail_first, self._tail_row, self._tail_len
            anchors, best = self.item_anchor, None
            for p in parents:
                off = p - first
                row = base + off if 0 <= off < count else self.row_of(p)
                a = _NAN if row is None else anchors[row]
                if a != a:
                    best = a
                    break
                if best is None or a < best:
                    best = a
            anchor = best
        n = self._tail_len
        if item_id == self._tail_first + n and n < self._tail_room:
            self._tail_len = n + 1
        else:
            self._start_run(item_id)
        if anchor != anchor:
            self._pending_row.append(len(self.item_t_alloc))
            self._pending_parents.extend(parents)
            self._pending_parents_end.append(len(self._pending_parents))
        self.item_t_alloc.append(t)
        self.item_freed.append(0)
        self.item_anchor.append(anchor)
        if self.trace_rows:
            site = (channel, node, producer)
            self.item_site.append(self._codes.get(site) or self._code(site))
            self.item_ts.append(ts)
            self.item_size.append(size)
            flat = self.item_parents
            if parents:
                flat.extend(parents)
            self.item_parents_end.append(len(flat))
            self.item_t_free.append(_NAN)
            if self._early_uses and item_id in self._early_uses:
                self.item_igc_end.append(self._early_uses.pop(item_id))
                self.item_igc.append(_USED)
            else:
                self.item_igc_end.append(_NO_USE)
                self.item_igc.append(0)

    def _start_run(self, item_id: int) -> None:
        """Make ``item_id`` the first id of a new tail run, on the next row."""
        item_id = index(item_id)  # a float or str id is refused
        if self.row_of(item_id) is not None:
            raise TraceError(f"duplicate alloc for item {item_id}")
        first = self._run_first
        if self._tail_len:  # the old tail is complete: it joins the columns
            k = bisect_left(first, self._tail_first)
            first.insert(k, self._tail_first)
            self._run_row.insert(k, self._tail_row)
            self._run_len.insert(k, self._tail_len)
        k = bisect_left(first, item_id)
        self._tail_first, self._tail_row, self._tail_len = (
            item_id, len(self.item_t_alloc), 1)
        self._run_rows_at.append(self._tail_row)
        self._run_ids_at.append(item_id)
        self._tail_room = first[k] - item_id if k < len(first) else _NO_LIMIT

    def row_of(self, item_id: int) -> Optional[int]:
        """Row of item ``item_id``; ``None`` if none was, or it is no integer."""
        try:
            item_id = index(item_id)
        except TypeError:
            return None
        off = item_id - self._tail_first
        if 0 <= off < self._tail_len:
            return self._tail_row + off
        first = self._run_first
        k = bisect_right(first, item_id) - 1
        if k >= 0:
            off = item_id - first[k]
            if off < self._run_len[k]:
                return self._run_row[k] + off
        return None

    def id_of(self, row: int) -> int:
        """Id of the item on row ``row``: the reverse of :meth:`row_of`."""
        if not 0 <= row < len(self.item_t_alloc):
            raise IndexError(f"no item row {row}")
        k = bisect_right(self._run_rows_at, row) - 1  # a live run has one run
        return self._run_ids_at[k] + row - self._run_rows_at[k]

    def ids(self) -> Iterator[int]:
        """Every item id in row order: one ``range`` per id run."""
        rows, ends = self._run_rows_at, [*self._run_rows_at[1:], len(self.item_t_alloc)]
        return chain.from_iterable([range(first, first + end - row) for first, row, end
                                    in zip(self._run_ids_at, rows, ends)])

    def tail_run(self) -> Tuple[int, int, int]:
        """``(first id, first row, length)`` of the run the newest row
        extended: a hot loop resolves most ids with this arithmetic
        before it falls back to :meth:`row_of`."""
        return self._tail_first, self._tail_row, self._tail_len

    # on_get and on_skip spell the tail-run arithmetic and the touch
    # appends out twice: a shared helper would be one more Python call
    # on every channel get.
    def on_get(self, item_id: int, conn_id: int, consumer: str, t: float) -> None:
        off = item_id - self._tail_first
        row = (self._tail_row + off if 0 <= off < self._tail_len
               else self.row_of(item_id))
        if row is None:
            raise TraceError(f"unknown item {item_id}")
        if self.trace_rows:
            flags = self.item_igc[row]
            if not flags & _USED and t > self.item_igc_end[row]:
                self.item_igc_end[row] = t  # the last get, while nothing consumed it
            self.item_igc[row] = flags | _GOTTEN
            self.touch_item.append(row)
            self.touch_conn.append(conn_id)
            self.touch_consumer.append(self._codes.get(consumer) or self._code(consumer))
            self.touch_t.append(t)
            self.touch_skip.append(0)

    def on_skip(self, item_id: int, conn_id: int, consumer: str, t: float) -> None:
        off = item_id - self._tail_first
        row = (self._tail_row + off if 0 <= off < self._tail_len
               else self.row_of(item_id))
        if row is None:
            raise TraceError(f"unknown item {item_id}")
        if self.trace_rows:
            self.touch_item.append(row)
            self.touch_conn.append(conn_id)
            self.touch_consumer.append(self._codes.get(consumer) or self._code(consumer))
            self.touch_t.append(t)
            self.touch_skip.append(1)

    def on_free(self, item_id: int, t: float) -> None:
        if self.t_end is not None:
            return  # sealed; late frees come from a collected run's threads
        off = item_id - self._tail_first
        row = (self._tail_row + off if 0 <= off < self._tail_len
               else self.row_of(item_id))
        if row is None:
            raise TraceError(f"unknown item {item_id}")
        freed = self.item_freed
        if freed[row]:
            raise TraceError(f"double free of item {item_id}")
        if t < self.item_t_alloc[row]:
            raise TraceError(f"free before alloc for item {item_id}")
        freed[row] = 1
        if self.trace_rows:
            self.item_t_free[row] = t

    # -- iterations ---------------------------------------------------------
    def on_iteration(self, thread: str, t_start: float, t_end: float,
                     compute: float, blocked: float, slept: float,
                     inputs: Tuple[int, ...], outputs: Tuple[int, ...],
                     is_sink: bool = False) -> None:
        counters = self._iter_counters
        counters[thread] = counters.get(thread, 0) + 1
        if is_sink:
            self.sink_thread.append(self._codes.get(thread) or self._code(thread))
            self.sink_t_end.append(t_end)
            flat = self.sink_inputs
            if inputs:
                flat.extend(inputs)
            self.sink_inputs_end.append(len(flat))
        if not self.trace_rows:
            return
        self.iter_thread.append(self._codes.get(thread) or self._code(thread))
        self.iter_t_start.append(t_start)
        self.iter_t_end.append(t_end)
        self.iter_compute.append(compute)
        self.iter_blocked.append(blocked)
        self.iter_slept.append(slept)
        self.iter_sink.append(is_sink)
        flat = self.iter_inputs
        if inputs:
            flat.extend(inputs)
        self.iter_inputs_end.append(len(flat))
        flat = self.iter_outputs
        if outputs:
            flat.extend(outputs)
        self.iter_outputs_end.append(len(flat))
        if is_sink:
            self.sink_iter.append(len(self.iter_thread) - 1)
        if inputs:
            # Each input's IGC end: the end of the last iteration that
            # consumed it (row_of inlined for the tail run).
            first, base, count = self._tail_first, self._tail_row, self._tail_len
            ends, igc = self.item_igc_end, self.item_igc
            for item_id in inputs:
                off = item_id - first
                row = base + off if 0 <= off < count else self.row_of(item_id)
                if row is None:
                    early = self._early_uses.get(item_id, _NO_USE)
                    self._early_uses[item_id] = t_end if t_end > early else early
                elif igc[row] & _USED:
                    if t_end > ends[row]:
                        ends[row] = t_end
                else:
                    ends[row] = t_end
                    igc[row] |= _USED

    def on_stp(self, thread: str, t: float, current_stp: float,
               summary: Optional[float], throttle_target: Optional[float],
               slept: float) -> None:
        if self.trace_rows:
            self.stp_thread.append(self._codes.get(thread) or self._code(thread))
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

    # -- pickling ----------------------------------------------------------
    def __getstate__(self) -> dict:
        drop = _INDEXES + _FOLDED if self.trace_rows else _INDEXES
        return {k: v for k, v in self.__dict__.items() if k not in drop}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Each name is coded once: _code runs only for a name not coded.
        self._codes = {name: code for code, name in enumerate(self._names) if code}
        if self.trace_rows:
            self._index_rows()
            self._fold_rows()

    def _fold_rows(self) -> None:
        """Fold the latency anchors, the pending list, the iteration
        counts and the early uses from the rows, in row order, as
        ``on_alloc`` and ``on_iteration`` folded them when the rows came."""
        pending, pending_parents, pending_ends = array("i"), array("q"), array("i")
        anchors, row_of = array("d"), self.row_of
        flat, ends = self.item_parents, self.item_parents_end
        for row, t in enumerate(self.item_t_alloc):
            parents = ragged(flat, ends, row)
            anchor = t
            if parents:
                # The oldest anchor among the parents: NaN if one came
                # on a later row (or none), or is not anchored.
                anchor = None
                for p in parents:
                    p_row = row_of(p)
                    a = _NAN if p_row is None or p_row >= row else anchors[p_row]
                    if a != a:
                        anchor = a
                        break
                    if anchor is None or a < anchor:
                        anchor = a
            if anchor != anchor:
                pending.append(row)
                pending_parents.extend(parents)
                pending_ends.append(len(pending_parents))
            anchors.append(anchor)
        self.item_anchor = anchors
        self._pending_row, self._pending_parents, self._pending_parents_end = (
            pending, pending_parents, pending_ends)
        names = self._names
        self._iter_counters = {names[code]: n
                               for code, n in Counter(self.iter_thread).items()}
        # An input no row holds keeps the end of the last iteration that
        # consumed it, for an on_alloc that may still come.
        early = self._early_uses = {}
        flat, ends = self.iter_inputs, self.iter_inputs_end
        for row, t_end in enumerate(self.iter_t_end):
            for item_id in ragged(flat, ends, row):
                if row_of(item_id) is None:
                    last = early.get(item_id, _NO_USE)
                    early[item_id] = t_end if t_end > last else last

    # -- rows, as the hooks received them --------------------------------
    def alloc_args(self, row: int) -> tuple:
        """Item row ``row`` as :meth:`on_alloc`'s positional arguments."""
        self.require_rows("alloc_args")
        channel, node, producer = self._names[self.item_site[row]]
        return (
            self.id_of(row), channel, node,
            self.item_ts[row], self.item_size[row], producer,
            tuple(ragged(self.item_parents, self.item_parents_end, row)),
            self.item_t_alloc[row],
        )

    def touch_args(self, row: int) -> tuple:
        """Touch row ``row`` as :meth:`on_get`'s / :meth:`on_skip`'s arguments."""
        self.require_rows("touch_args")
        return (self.id_of(self.touch_item[row]), self.touch_conn[row],
                self._names[self.touch_consumer[row]], self.touch_t[row])

    def iteration_args(self, row: int) -> tuple:
        """Iteration row ``row`` as :meth:`on_iteration`'s arguments."""
        self.require_rows("iteration_args")
        return (
            self._names[self.iter_thread[row]], self.iter_t_start[row],
            self.iter_t_end[row], self.iter_compute[row],
            self.iter_blocked[row], self.iter_slept[row],
            tuple(ragged(self.iter_inputs, self.iter_inputs_end, row)),
            tuple(ragged(self.iter_outputs, self.iter_outputs_end, row)),
            bool(self.iter_sink[row]),
        )

    def stp_args(self, row: int) -> tuple:
        """STP row ``row`` as :meth:`on_stp`'s positional arguments."""
        self.require_rows("stp_args")
        none = self.stp_none[row]
        return (
            self._names[self.stp_thread[row]], self.stp_t[row], self.stp_current[row],
            None if none & _SUMMARY_NONE else self.stp_summary[row],
            None if none & _TARGET_NONE else self.stp_target[row],
            self.stp_slept[row],
        )

    def threads_of(self, rows) -> List[str]:
        """The thread of each iteration row in ``rows``."""
        self.require_rows("threads_of")
        return [self._names[self.iter_thread[row]] for row in rows]

    def names_of(self, codes) -> List:
        """The name each code in ``codes`` stands for (``sink_thread``'s)."""
        return [self._names[code] for code in codes]

    # -- what every run keeps ---------------------------------------------
    def iteration_count(self, thread: str) -> int:
        """Iterations ``thread`` has completed (O(1))."""
        return self._iter_counters.get(thread, 0)

    def anchors(self) -> array:
        """Per item row, the creation time of its oldest source ancestor:
        ``item_anchor``, with the pending rows resolved — in a copy, as a
        parent allocated later may still lower them. A parent in no table
        anchors nothing; NaN marks a row left unresolved, which only a
        lineage cycle does. Each pass resolves the rows whose parents
        are resolved, so a reordered table takes one pass per level of
        lineage it lists out of order."""
        pending = self._pending_row
        if not pending:
            return self.item_anchor
        anchors = array("d", self.item_anchor)
        t_alloc, row_of = self.item_t_alloc, self.row_of
        flat, ends = self._pending_parents, self._pending_parents_end
        todo: Sequence[int] = range(len(pending))
        while todo:
            deferred: List[int] = []
            for k in todo:
                best = None
                for p in ragged(flat, ends, k):
                    p_row = row_of(p)
                    if p_row is None:
                        continue
                    a = anchors[p_row]
                    if a != a:  # NaN: not resolved yet
                        deferred.append(k)
                        break
                    if best is None or a < best:
                        best = a
                else:
                    row = pending[k]
                    anchors[row] = best if best is not None else t_alloc[row]
            if len(deferred) == len(todo):
                break  # a lineage cycle: no trace has one; leave it unanchored
            todo = deferred
        return anchors

    # -- row numbers ----------------------------------------------------------
    def sink_rows(self) -> Sequence:
        """Iteration row of each sink iteration, in completion order."""
        self.require_rows("sink_rows")
        return self.sink_iter

    def channel_rows(self, channel: str) -> Sequence:
        """Row numbers of ``channel``'s items, in allocation order."""
        self.require_rows("channel_rows")
        return self._by_channel.groups().get(channel, ())

    def stp_rows(self, thread: str) -> Sequence:
        """Row numbers of ``thread``'s STP samples, in recording order."""
        self.require_rows("stp_rows")
        return self._by_stp_thread.groups().get(thread, ())

    def _touches_of(self, row: int) -> np.ndarray:
        """Touch-table rows of item row ``row``, in recording order (a
        stable sort by item row, redone when either table has grown)."""
        stamp = (len(self.touch_item), len(self.item_t_alloc))
        groups = self._touch_groups
        if groups is None or groups[0] != stamp:
            import numpy as np

            touched = np.array(self.touch_item, dtype=np.intp)
            order = np.argsort(touched, kind="stable")
            starts = np.searchsorted(touched[order], np.arange(stamp[1] + 1))
            groups = self._touch_groups = (stamp, order, starts)
        _, order, starts = groups
        return order[starts[row]:starts[row + 1]]

    # -- records, built on access -----------------------------------------
    def _item_at(self, row: int) -> ItemTrace:
        gets, skips = [], []
        for k in self._touches_of(row):
            (skips if self.touch_skip[k] else gets).append(
                Touch(self.touch_conn[k], self._names[self.touch_consumer[k]],
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
        self.require_rows("items")
        return _ItemsView(self)

    @property
    def iterations(self) -> TraceView:
        """Every :class:`IterationTrace`, in completion order."""
        self.require_rows("iterations")
        return TraceView(self._iteration_at, None, self.iter_thread)

    @property
    def stp_samples(self) -> TraceView:
        """Every :class:`StpSample`, in recording order."""
        self.require_rows("stp_samples")
        return TraceView(self._stp_at, None, self.stp_thread)

    def iterations_of(self, thread: str) -> TraceView:
        """All iterations of ``thread``, in completion order."""
        self.require_rows("iterations_of")
        return TraceView(self._iteration_at,
                         self._by_thread.groups().get(thread, ()))

    def sink_iterations(self) -> TraceView:
        """All sink iterations, in completion order."""
        self.require_rows("sink_iterations")
        return TraceView(self._iteration_at, self.sink_iter)

    def items_of_channel(self, channel: str) -> TraceView:
        """All items of ``channel``, in allocation order."""
        self.require_rows("items_of_channel")
        return TraceView(self._item_at, self.channel_rows(channel))

    def threads(self) -> List[str]:
        """Thread names in order of first recorded iteration."""
        self.require_rows("threads")
        return list(self._by_thread.groups())

    def channels(self) -> List[str]:
        """Channel names in order of first allocation."""
        self.require_rows("channels")
        return list(self._by_channel.groups())
