"""The column recorder, in both of its modes, against the object
recorder it replaced.

A hypothesis state machine feeds one hook sequence — including the four
misuses the recorder rejects — to ``object_recorder.ObjectRecorder`` (the
recorder that kept one record object per interaction, kept in this
directory as the oracle) and to ``repro.metrics.TraceRecorder`` twice:
with its rows (``trace_rows=True``) and without (``trace_rows=False``).
It reads every view in the middle of the sequence and requires: the
same exception type and message from all three, the same records out of
every view of the recorder with rows (and a ``TraceError`` from every
row reader of the one without), the same latency anchors in both modes
as the oracle's, the same serialized trace, and the same results — the
record-walking analyses of ``record_analyses.py`` on the oracle, the
column-reading ones of ``src/`` bit for bit: the postmortem on the
recorder with rows, the latency family on both modes. The same analyses
must agree again on ``load_trace`` and ``merge_traces`` output of the
sequence, where lineage is out of allocation order, and on a replay of
each without rows.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule
from object_recorder import ObjectRecorder, records_to_dict
from record_analyses import (
    RecordPostmortem,
    _oldest_source_anchor,
    column_ideal_footprint,
    column_last_use_end,
    column_oldest_source_anchor,
)
from record_analyses import jitter as record_jitter
from record_analyses import latency_samples as record_latency_samples
from record_analyses import (
    latency_samples_by_thread as record_latency_samples_by_thread,
)
from record_analyses import output_times as record_output_times
from record_analyses import throughput_fps as record_throughput_fps

from repro.errors import TraceError
from repro.metrics import (
    PostmortemAnalyzer,
    TraceRecorder,
    jitter,
    latency_samples,
    merge_traces,
    output_times,
    throughput_fps,
    trace_from_dict,
    trace_to_dict,
)
from repro.metrics.performance import latency_samples_by_thread

ids = st.integers(0, 24)  # small: duplicates, unknown ids and late parents
id_tuples = st.lists(ids, max_size=3).map(tuple)
times = st.floats(0.0, 50.0, allow_nan=False)
names = st.sampled_from(["a", "b", "t0/gui"])
maybe_nan = st.one_of(st.none(), st.just(float("nan")), times)

#: The row readers: each raises on a recorder kept without rows.
ROW_VIEWS = (
    lambda rec: rec.items, lambda rec: rec.iterations,
    lambda rec: rec.stp_samples, lambda rec: rec.sink_iterations(),
    lambda rec: rec.iterations_of("a"), lambda rec: rec.items_of_channel("a"),
    lambda rec: rec.stp_rows("a"), lambda rec: rec.threads(),
    lambda rec: rec.channels(), lambda rec: rec.sink_rows(),
    lambda rec: rec.channel_rows("a"), lambda rec: rec.threads_of([]),
    trace_to_dict,
)


def canon(records):
    """Records as text: exact for floats, and NaN equals NaN."""
    return [repr(record) for record in records]


def timeline_bytes(timeline):
    return timeline.times.tobytes(), timeline.values.tobytes()


def postmortem(pm, channels):
    """Every postmortem result of one trace."""
    return {
        "delivered": pm.delivered_ids,
        "successful": pm.successful_ids,
        "byte_seconds": (pm.total_byte_seconds, pm.wasted_byte_seconds,
                         pm.wasted_memory_fraction),
        "compute": (pm.total_compute, pm.wasted_compute,
                    pm.wasted_computation_fraction),
        "footprint": timeline_bytes(pm.footprint()),
        "by_channel": [timeline_bytes(pm.footprint(c))
                       for c in [*channels, "no such channel"]],
        "igc": timeline_bytes(pm.ideal_footprint()),
        "thread_waste": pm.thread_waste_report(),
        "channel_report": pm.channel_report(),
    }


def performance(recorder, warmup, fns):
    """Every performance result of one trace; ``fns`` are the latency,
    by-thread, fps, output-times and jitter functions. Samples are
    compared as lists: ``src/`` returns ``array``\\ s."""
    latency, by_thread, fps, outputs, jitter_of = fns
    return {
        "latency": list(latency(recorder, warmup)),
        "by_thread": {thread: list(samples) for thread, samples
                      in by_thread(recorder, warmup).items()},
        "fps": fps(recorder, warmup),
        "outputs": outputs(recorder, warmup),
        "jitter": repr(jitter_of(recorder, warmup)),
    }


MINE = (latency_samples, latency_samples_by_thread, throughput_fps,
        output_times, jitter)
THEIRS = (record_latency_samples, record_latency_samples_by_thread,
          record_throughput_fps, record_output_times, record_jitter)


def anchors_agree(rec, oracle):
    """``rec``'s latency anchors, resolved, are the record oracle's item
    by item (NaN for an item the oracle anchors to nothing)."""
    by_id = _oldest_source_anchor(oracle)
    anchors = rec.anchors()
    assert repr([anchors[rec.row_of(item_id)] for item_id in oracle.items]) == repr(
        [float("nan") if by_id[item_id] is None else by_id[item_id]
         for item_id in oracle.items])


def twin_without_rows(rec):
    """A recorder without rows, fed ``rec``'s rows in ``rec``'s row order."""
    twin = TraceRecorder(trace_rows=False)
    twin.t_start = rec.t_start
    for row in range(len(rec.item_t_alloc)):
        twin.on_alloc(*rec.alloc_args(row))
    for k, skip in enumerate(rec.touch_skip):
        (twin.on_skip if skip else twin.on_get)(*rec.touch_args(k))
    for row, t_free in enumerate(rec.item_t_free):
        if t_free == t_free:  # not NaN: freed
            twin.on_free(rec.id_of(row), t_free)
    for row in range(len(rec.iter_thread)):
        twin.on_iteration(*rec.iteration_args(row))
    twin.finalize(rec.t_end)
    return twin


def check_both_modes(rec, warmup):
    """``rec`` (kept with rows) analyses as the record-walking oracles do
    on ``rec``'s views, and its twin without rows keeps the same anchors
    and latencies."""
    channels = rec.channels()
    assert postmortem(PostmortemAnalyzer(rec), channels) == postmortem(
        RecordPostmortem(rec), channels)
    expected = performance(rec, warmup, THEIRS)
    assert repr(rec.anchors()) == repr(column_oldest_source_anchor(rec))
    twin = twin_without_rows(rec)
    for mine in (rec, twin):
        assert performance(mine, warmup, MINE) == expected
        anchors_agree(mine, rec)
    assert repr(twin.item_anchor) == repr(rec.item_anchor)
    check_stp_index(rec)


def check_stp_index(rec):
    """``stp_rows`` is the scan it replaced, thread by thread."""
    threads = {rec.stp_args(row)[0] for row in range(len(rec.stp_thread))}
    for thread in [*sorted(threads), "nobody"]:
        assert list(rec.stp_rows(thread)) == [
            row for row in range(len(rec.stp_thread))
            if rec.stp_args(row)[0] == thread]


def reordered(data):
    """``data`` with its items in reverse order: children before parents."""
    return {**data, "items": data["items"][::-1]}


def split(data):
    """``data`` as two worker traces: even item ids and every other
    iteration and STP sample in one, the rest in the other."""
    return [{**data,
             "items": [i for i in data["items"] if i["id"] % 2 == parity],
             "iterations": data["iterations"][parity::2],
             "stp_samples": data["stp_samples"][parity::2]}
            for parity in (0, 1)]


class RecorderMachine(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.obj = ObjectRecorder()
        self.rows = TraceRecorder(trace_rows=True)
        self.lean = TraceRecorder(trace_rows=False)

    def both(self, hook, *args, **kwargs):
        outcomes = []
        for recorder in (self.obj, self.rows, self.lean):
            try:
                outcomes.append(getattr(recorder, hook)(*args, **kwargs))
            except TraceError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1] == outcomes[2], (hook, args, outcomes)

    @rule(item_id=ids, channel=names, ts=st.integers(0, 5),
          size=st.integers(0, 1000), parents=id_tuples, t=times)
    def alloc(self, item_id, channel, ts, size, parents, t):
        # A known id is the duplicate-alloc misuse. Lineage is acyclic
        # (parents have smaller ids) but not ordered: a parent may be
        # allocated after its child, or never.
        parents = tuple(p for p in parents if p < item_id)
        self.both("on_alloc", item_id=item_id, channel=channel, node="n0",
                  ts=ts, size=size, producer="p", parents=parents, t=t)

    @rule(hook=st.sampled_from(["on_get", "on_skip"]), item_id=ids,
          conn_id=st.integers(1, 4), consumer=names, t=times)
    def touch(self, hook, item_id, conn_id, consumer, t):
        self.both(hook, item_id, conn_id, consumer, t)  # or: unknown item

    @rule(item_id=ids, t=times)
    def free(self, item_id, t):
        # Unknown item, double free and free before alloc all land here.
        self.both("on_free", item_id, t)

    @rule(thread=names, t_start=times, span=times, inputs=id_tuples,
          outputs=id_tuples, is_sink=st.booleans())
    def iteration(self, thread, t_start, span, inputs, outputs, is_sink):
        # An input may be allocated only later: its IGC end still counts.
        self.both("on_iteration", thread=thread, t_start=t_start,
                  t_end=t_start + span, compute=span / 2, blocked=span / 4,
                  slept=span / 8, inputs=inputs, outputs=outputs,
                  is_sink=is_sink)

    @rule(thread=names, t=times, stp=times, summary=maybe_nan,
          throttle=maybe_nan)
    def stp(self, thread, t, stp, summary, throttle):
        self.both("on_stp", thread, t, stp, summary, throttle, 0.0)

    @rule()
    def read_every_view(self):
        obj, col, lean = self.obj, self.rows, self.lean
        assert list(col.items) == list(obj.items)
        assert len(col.items) == len(obj.items)
        assert canon(col.items.values()) == canon(obj.items.values())
        for item_id in range(25):
            assert (item_id in col.items) == (item_id in obj.items)
            assert repr(col.items.get(item_id)) == repr(obj.items.get(item_id))
        assert canon(col.iterations) == canon(obj.iterations)
        assert canon(col.stp_samples) == canon(obj.stp_samples)
        assert canon(col.sink_iterations()) == canon(obj.sink_iterations())
        assert col.threads() == obj.threads()
        assert col.channels() == obj.channels()
        assert len(col.sink_rows()) == len(obj.sink_iterations())
        # Both modes fold the same anchors, leave the same rows pending,
        # and resolve them to the oracle's.
        assert repr(lean.item_anchor) == repr(col.item_anchor)
        assert lean._pending_row == col._pending_row
        for rec in (col, lean):
            anchors_agree(rec, obj)
            assert len(rec.sink_t_end) == len(obj.sink_iterations())
        for thread in [*obj.threads(), "nobody"]:
            assert canon(col.iterations_of(thread)) == canon(
                obj.iterations_of(thread))
            for rec in (col, lean):
                assert rec.iteration_count(thread) == len(
                    obj.iterations_of(thread))
        for channel in [*obj.channels(), "nowhere"]:
            assert canon(col.items_of_channel(channel)) == canon(
                obj.items_of_channel(channel))
        check_stp_index(col)
        for view in ROW_VIEWS:
            try:
                view(lean)
            except TraceError as exc:
                assert "trace_rows=False" in str(exc)
            else:
                raise AssertionError("a row view answered without rows")

    @rule(t_end=times, warmup=st.sampled_from([0.0, 10.0]))
    def finalize_a_copy_and_analyze(self, t_end, warmup):
        # Through pickle: the copies are finalized, the run goes on.
        obj, col, lean = (pickle.loads(pickle.dumps(rec))
                          for rec in (self.obj, self.rows, self.lean))
        for rec in (obj, col, lean):
            rec.finalize(t_end)
        saved = json.dumps(trace_to_dict(col))
        assert saved == json.dumps(records_to_dict(obj))
        assert saved == json.dumps(records_to_dict(col))  # through the views
        assert saved == json.dumps(trace_to_dict(trace_from_dict(
            json.loads(saved))))
        channels = obj.channels()
        oracle = RecordPostmortem(obj)
        expected = postmortem(oracle, channels)
        assert postmortem(PostmortemAnalyzer(col), channels) == expected
        assert postmortem(RecordPostmortem(col), channels) == expected
        expected_performance = performance(obj, warmup, THEIRS)
        for rec in (col, lean):
            assert performance(rec, warmup, MINE) == expected_performance
        assert performance(col, warmup, THEIRS) == expected_performance
        with pytest.raises(TraceError, match="trace_rows"):
            PostmortemAnalyzer(lean)
        # The post-run IGC passes the recorder's fold replaced.
        assert column_last_use_end(col) == oracle._last_use_end
        assert timeline_bytes(column_ideal_footprint(
            col, PostmortemAnalyzer(col)._success_mask,
            t_end)) == expected["igc"]

        data = json.loads(saved)
        check_both_modes(trace_from_dict(reordered(data)), warmup)
        workers = [trace_from_dict(part) for part in split(data)]
        check_both_modes(merge_traces(workers), warmup)
        check_both_modes(merge_traces(workers[::-1]), warmup)


TestRecorderAgainstOracle = RecorderMachine.TestCase
TestRecorderAgainstOracle.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_analyses_of_an_empty_trace_agree_in_both_modes():
    rec = TraceRecorder(trace_rows=True)
    rec.finalize(5.0)
    pm = PostmortemAnalyzer(rec)
    assert pm.wasted_memory_fraction == pm.wasted_computation_fraction == 0.0
    assert np.array_equal(pm.ideal_footprint().values, [0.0])
    for trace_rows in (True, False):
        rec = TraceRecorder(trace_rows=trace_rows)
        rec.finalize(5.0)
        assert list(latency_samples(rec)) == [] and throughput_fps(rec) == 0.0


def test_the_postmortem_of_a_trace_without_rows_names_trace_rows():
    rec = TraceRecorder(trace_rows=False)
    rec.on_alloc(1, "c", "n0", 0, 10, "p", (), 0.0)
    rec.on_iteration("a", 0.5, 1.0, 0.5, 0.0, 0.0, (1,), (), True)
    rec.finalize(2.0)
    with pytest.raises(TraceError, match=r"PostmortemAnalyzer .*trace_rows=True"):
        PostmortemAnalyzer(rec)
    assert list(latency_samples(rec)) == [1.0]


def test_the_igc_end_is_the_last_use_whatever_the_hook_order():
    # A get after the consuming iteration ended (another consumer's) does
    # not extend the IGC end, and an iteration that consumed an item
    # before it was allocated still counts.
    rec = TraceRecorder(trace_rows=True)
    rec.on_alloc(1, "c", "n0", 0, 10, "p", (), 0.0)
    rec.on_get(1, 1, "a", 1.0)
    rec.on_iteration("a", 0.5, 3.0, 1.0, 0.0, 0.0, (1, 2), (), True)
    rec.on_get(1, 2, "b", 5.0)
    rec.on_alloc(2, "c", "n0", 1, 10, "p", (), 2.0)
    rec.on_get(2, 1, "a", 2.5)
    rec.finalize(8.0)
    expected = timeline_bytes(column_ideal_footprint(
        rec, PostmortemAnalyzer(rec)._success_mask, 8.0))
    assert timeline_bytes(RecordPostmortem(rec).ideal_footprint()) == expected
    assert list(rec.item_igc_end) == [3.0, 3.0]
    assert timeline_bytes(PostmortemAnalyzer(rec).ideal_footprint()) == expected


def test_an_anchor_waits_for_a_parent_allocated_later():
    # A child allocated before its parent, and a grandchild of that
    # child, stay pending until read: then they take the parent's
    # anchor, as the post-run pass over the lineage columns did.
    for trace_rows in (True, False):
        rec = TraceRecorder(trace_rows=trace_rows)
        rec.on_alloc(5, "c", "n0", 0, 10, "p", (3,), 2.0)
        rec.on_alloc(6, "c", "n0", 0, 10, "p", (5, 9), 3.0)
        assert repr(rec.item_anchor) == "array('d', [nan, nan])"
        # 3 and 9 are in no table yet: 5 anchors itself, 6 on 5.
        assert list(rec.anchors()) == [2.0, 2.0]
        rec.on_alloc(3, "c", "n0", 0, 10, "p", (), 1.0)
        rec.on_alloc(7, "c", "n0", 0, 10, "p", (3,), 4.0)  # resolved now
        assert list(rec._pending_row) == [0, 1]
        assert list(rec.anchors()) == [1.0, 1.0, 1.0, 1.0]
        assert repr(rec.item_anchor) == "array('d', [nan, nan, 1.0, 1.0])"
