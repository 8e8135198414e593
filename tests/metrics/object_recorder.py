"""Oracle: the object-per-interaction ``TraceRecorder`` this repo used
until ISSUE 23 replaced its storage with typed columns.

Kept here, and only here, as the reference the column recorder is
checked against (``test_recorder_oracle.py``): same hooks, same
``TraceError`` checks and messages, same public reading API — but
``items`` is a plain dict of :class:`ItemTrace` and ``iterations`` /
``stp_samples`` are plain lists, so every record lives for the whole run.
``records_to_dict`` is the serializer that went with it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import TraceError
from repro.metrics.events import ItemTrace, IterationTrace, StpSample, Touch

_EMPTY_ITERS: List[IterationTrace] = []
_EMPTY_ITEMS: List[ItemTrace] = []


class ObjectRecorder:
    """The recorder as it was: one slotted record object per hook call."""

    def __init__(self, record_stp: bool = True) -> None:
        self.items: Dict[int, ItemTrace] = {}
        self.iterations: List[IterationTrace] = []
        self.stp_samples: List[StpSample] = []
        self.record_stp = record_stp
        self.t_start: float = 0.0
        self.t_end: Optional[float] = None
        self._iter_counters: Dict[str, int] = {}
        # -- lazily built view indexes --------------------------------
        #: Item traces in allocation order (the dict's insertion order),
        #: kept so the channel index can extend incrementally.
        self._item_seq: List[ItemTrace] = []
        self._by_thread: Optional[Dict[str, List[IterationTrace]]] = None
        self._sinks: Optional[List[IterationTrace]] = None
        self._iters_indexed = 0
        self._by_channel: Optional[Dict[str, List[ItemTrace]]] = None
        self._items_indexed = 0

    # -- item lifecycle ---------------------------------------------------
    def on_alloc(
        self,
        item_id: int,
        channel: str,
        node: str,
        ts: int,
        size: int,
        producer: str,
        parents: Tuple[int, ...],
        t: float,
    ) -> None:
        if item_id in self.items:
            raise TraceError(f"duplicate alloc for item {item_id}")
        trace = ItemTrace(
            item_id=item_id,
            channel=channel,
            node=node,
            ts=ts,
            size=size,
            producer=producer,
            parents=parents,
            t_alloc=t,
        )
        self.items[item_id] = trace
        self._item_seq.append(trace)

    def on_get(self, item_id: int, conn_id: int, consumer: str, t: float) -> None:
        self._item(item_id).gets.append(Touch(conn_id, consumer, t))

    def on_skip(self, item_id: int, conn_id: int, consumer: str, t: float) -> None:
        self._item(item_id).skips.append(Touch(conn_id, consumer, t))

    def on_free(self, item_id: int, t: float) -> None:
        trace = self._item(item_id)
        if trace.t_free is not None:
            raise TraceError(f"double free of item {item_id}")
        if t < trace.t_alloc:
            raise TraceError(f"free before alloc for item {item_id}")
        trace.t_free = t

    def _item(self, item_id: int) -> ItemTrace:
        trace = self.items.get(item_id)
        if trace is None:
            raise TraceError(f"unknown item {item_id}")
        return trace

    # -- iterations ---------------------------------------------------------
    def on_iteration(
        self,
        thread: str,
        t_start: float,
        t_end: float,
        compute: float,
        blocked: float,
        slept: float,
        inputs: Tuple[int, ...],
        outputs: Tuple[int, ...],
        is_sink: bool = False,
    ) -> None:
        index = self._iter_counters.get(thread, 0)
        self._iter_counters[thread] = index + 1
        self.iterations.append(
            IterationTrace(
                thread=thread,
                index=index,
                t_start=t_start,
                t_end=t_end,
                compute=compute,
                blocked=blocked,
                slept=slept,
                inputs=inputs,
                outputs=outputs,
                is_sink=is_sink,
            )
        )

    def on_stp(
        self,
        thread: str,
        t: float,
        current_stp: float,
        summary: Optional[float],
        throttle_target: Optional[float],
        slept: float,
    ) -> None:
        if self.record_stp:
            self.stp_samples.append(
                StpSample(thread, t, current_stp, summary, throttle_target, slept)
            )

    # -- run boundary ----------------------------------------------------
    def finalize(self, t_end: float) -> None:
        """Close the trace at simulated time ``t_end``.

        Unfreed items stay unfreed (their lifetime extends to the horizon
        in footprint computations) — matching a real run snapshot. Any
        view indexes built mid-run are dropped so postmortem analysis
        starts from a fresh, complete grouping.
        """
        if self.t_end is not None:
            raise TraceError("finalize() called twice")
        self.t_end = float(t_end)
        self._by_thread = None
        self._sinks = None
        self._iters_indexed = 0
        self._by_channel = None
        self._items_indexed = 0

    @property
    def duration(self) -> float:
        if self.t_end is None:
            raise TraceError("trace not finalized")
        return self.t_end - self.t_start

    # -- index maintenance ---------------------------------------------------
    def _iteration_index(self) -> Tuple[Dict[str, List[IterationTrace]],
                                        List[IterationTrace]]:
        by_thread = self._by_thread
        sinks = self._sinks
        if by_thread is None:
            by_thread = {}
            sinks = []
            self._by_thread = by_thread
            self._sinks = sinks
            self._iters_indexed = 0
        pos = self._iters_indexed
        iterations = self.iterations
        if pos < len(iterations):
            for it in iterations[pos:]:
                bucket = by_thread.get(it.thread)
                if bucket is None:
                    by_thread[it.thread] = [it]
                else:
                    bucket.append(it)
                if it.is_sink:
                    sinks.append(it)
            self._iters_indexed = len(iterations)
        return by_thread, sinks

    def _channel_index(self) -> Dict[str, List[ItemTrace]]:
        if len(self._item_seq) != len(self.items):
            # Items were inserted into the dict directly (trace_io does
            # this when rebuilding saved traces): resync the allocation
            # sequence and regroup from scratch.
            self._item_seq = list(self.items.values())
            self._by_channel = None
        by_channel = self._by_channel
        if by_channel is None:
            by_channel = {}
            self._by_channel = by_channel
            self._items_indexed = 0
        pos = self._items_indexed
        seq = self._item_seq
        if pos < len(seq):
            for item in seq[pos:]:
                bucket = by_channel.get(item.channel)
                if bucket is None:
                    by_channel[item.channel] = [item]
                else:
                    bucket.append(item)
            self._items_indexed = len(seq)
        return by_channel

    # -- convenience views ---------------------------------------------------
    def iterations_of(self, thread: str) -> List[IterationTrace]:
        """All iterations of ``thread``, in completion order (read-only)."""
        return self._iteration_index()[0].get(thread, _EMPTY_ITERS)

    def sink_iterations(self) -> List[IterationTrace]:
        """All sink iterations, in completion order (read-only)."""
        return self._iteration_index()[1]

    def items_of_channel(self, channel: str) -> List[ItemTrace]:
        """All items of ``channel``, in allocation order (read-only)."""
        return self._channel_index().get(channel, _EMPTY_ITEMS)

    def threads(self) -> List[str]:
        """Thread names in order of first recorded iteration."""
        return list(self._iteration_index()[0])

    def channels(self) -> List[str]:
        """Channel names in order of first allocation."""
        return list(self._channel_index())


def records_to_dict(recorder) -> dict:
    """``trace_io.trace_to_dict`` as it was: walks the record objects (or
    the column recorder's views, which must look the same)."""
    if recorder.t_end is None:
        raise TraceError("finalize the recorder before saving")
    return {
        "schema": 1,
        "t_start": recorder.t_start,
        "t_end": recorder.t_end,
        "items": [
            {
                "id": it.item_id,
                "channel": it.channel,
                "node": it.node,
                "ts": it.ts,
                "size": it.size,
                "producer": it.producer,
                "parents": list(it.parents),
                "t_alloc": it.t_alloc,
                "t_free": it.t_free,
                "gets": [[t.conn_id, t.consumer, t.t] for t in it.gets],
                "skips": [[t.conn_id, t.consumer, t.t] for t in it.skips],
            }
            for it in recorder.items.values()
        ],
        "iterations": [
            {
                "thread": it.thread,
                "index": it.index,
                "t_start": it.t_start,
                "t_end": it.t_end,
                "compute": it.compute,
                "blocked": it.blocked,
                "slept": it.slept,
                "inputs": list(it.inputs),
                "outputs": list(it.outputs),
                "is_sink": it.is_sink,
            }
            for it in recorder.iterations
        ],
        "stp_samples": [
            {
                "thread": s.thread,
                "t": s.t,
                "current_stp": s.current_stp,
                "summary": s.summary,
                "throttle_target": s.throttle_target,
                "slept": s.slept,
            }
            for s in recorder.stp_samples
        ],
    }
