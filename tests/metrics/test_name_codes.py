"""Names stored as codes: the recorder against the object recorder.

``TraceRecorder`` keeps an item's ``(channel, node, producer)``, a
touch's consumer and a thread as 4-byte codes into one name table, and
no item-id column. Random hook sequences whose names
all come from one small alphabet — a thread named like a channel, the
empty name, a non-ASCII one — must read back exactly what
``object_recorder.ObjectRecorder`` stored: row by row through the
``*_args`` methods, through every view, after ``rebase_trace``, and
after ``merge_traces`` of two recorders that coded the same names
differently.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from object_recorder import ObjectRecorder

from repro.errors import TraceError
from repro.metrics import TraceRecorder, control_series, merge_traces
from repro.metrics.trace_io import rebase_trace

ALPHABET = ["a", "", "né/名", "t0/gui"]
names = st.sampled_from(ALPHABET)
times = st.floats(0.0, 50.0, allow_nan=False)
maybe_none = st.one_of(st.none(), st.just(float("nan")), times)


def drive(data, first_thread, id_base):
    """A recorder and its oracle fed one random valid hook sequence that
    starts with an iteration of ``first_thread`` (so that name has code 0
    in the table); the touches as (skip, on_get arguments)."""
    col, obj = TraceRecorder(), ObjectRecorder()
    touches, ids = [], []

    def both(hook, *args):
        getattr(col, hook)(*args)
        getattr(obj, hook)(*args)

    both("on_iteration", first_thread, 0.0, 1.0, 0.5, 0.25, 0.0, (), (), False)
    for _ in range(data.draw(st.integers(0, 40))):
        kind = data.draw(st.sampled_from(
            ["alloc", "alloc", "touch", "free", "iteration", "stp"]))
        if kind == "alloc":
            item_id = id_base + data.draw(st.integers(0, 30))
            if item_id in ids:
                continue
            parents = tuple(data.draw(st.lists(
                st.sampled_from(ids), max_size=2))) if ids else ()
            both("on_alloc", item_id, data.draw(names), data.draw(names),
                 data.draw(st.integers(0, 5)), data.draw(st.integers(0, 99)),
                 data.draw(names), parents, data.draw(times))
            ids.append(item_id)
        elif kind == "touch" and ids:
            skip = data.draw(st.booleans())
            args = (data.draw(st.sampled_from(ids)),
                    data.draw(st.integers(1, 3)), data.draw(names),
                    data.draw(times))
            both("on_skip" if skip else "on_get", *args)
            touches.append((skip, args))
        elif kind == "free" and ids:
            item_id = data.draw(st.sampled_from(ids))
            if obj.items[item_id].t_free is None:
                both("on_free", item_id, obj.items[item_id].t_alloc + 1.0)
        elif kind == "iteration":
            t_start, span = data.draw(times), data.draw(times)
            both("on_iteration", data.draw(names), t_start, t_start + span,
                 span / 2, span / 4, span / 8,
                 tuple(data.draw(st.lists(st.sampled_from(ids or [0]),
                                          max_size=2))),
                 tuple(data.draw(st.lists(st.sampled_from(ids or [0]),
                                          max_size=2))),
                 data.draw(st.booleans()))
        elif kind == "stp":
            both("on_stp", data.draw(names), data.draw(times),
                 data.draw(times), data.draw(maybe_none),
                 data.draw(maybe_none), 0.0)
    return col, obj, touches


def item_args(item):
    return (item.item_id, item.channel, item.node, item.ts, item.size,
            item.producer, item.parents, item.t_alloc)


def iteration_args(it):
    return (it.thread, it.t_start, it.t_end, it.compute, it.blocked,
            it.slept, it.inputs, it.outputs, it.is_sink)


def stp_args(s):
    return (s.thread, s.t, s.current_stp, s.summary, s.throttle_target,
            s.slept)


def canon(records):
    """Records as text: exact for floats, and NaN equals NaN."""
    return [repr(record) for record in records]


def check_rows(col, obj, touches):
    items = list(obj.items.values())
    assert [col.alloc_args(row) for row in range(len(col.items))] == [
        item_args(item) for item in items]
    assert [(bool(col.touch_skip[k]), col.touch_args(k))
            for k in range(len(col.touch_t))] == touches
    assert canon(col.iteration_args(row) for row in range(len(col.iter_t_end))
                 ) == canon(iteration_args(it) for it in obj.iterations)
    assert canon(col.stp_args(row) for row in range(len(col.stp_t))) == canon(
        stp_args(s) for s in obj.stp_samples)
    for row, item_id in enumerate(obj.items):
        assert col.row_of(item_id) == row
        assert col.id_of(col.row_of(item_id)) == item_id
    assert list(col.ids()) == list(obj.items)


def check_views(col, obj):
    assert list(col.items) == list(obj.items)
    assert canon(col.items.values()) == canon(obj.items.values())
    assert col.threads() == obj.threads()
    assert col.channels() == obj.channels()
    for name in [*ALPHABET, "nobody"]:
        assert canon(col.iterations_of(name)) == canon(obj.iterations_of(name))
        assert canon(col.items_of_channel(name)) == canon(
            obj.items_of_channel(name))
        samples = [s for s in obj.stp_samples if s.thread == name]
        if not samples:
            with pytest.raises(TraceError):
                control_series(col, name)
            continue
        series = control_series(col, name)
        for got, field in ((series.times, "t"),
                           (series.current_stp, "current_stp"),
                           (series.summary, "summary"),
                           (series.throttle_target, "throttle_target")):
            want = [getattr(s, field) for s in samples]
            assert np.array_equal(
                got, np.array([np.nan if v is None else v for v in want]),
                equal_nan=True)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_coded_names_read_back_as_stored(data):
    col, obj, touches = drive(data, "a", 0)
    check_rows(col, obj, touches)
    check_views(col, obj)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.floats(-20.0, 20.0, allow_nan=False))
def test_rebase_moves_times_and_keeps_names(data, t_start):
    col, obj, _ = drive(data, "", 0)
    col.finalize(60.0)
    rebased = rebase_trace(pickle.loads(pickle.dumps(col)), t_start)
    delta = t_start - col.t_start
    for row, item in enumerate(obj.items.values()):
        assert rebased.alloc_args(row) == (
            *item_args(item)[:-1], item.t_alloc + delta)
    assert [rebased.iteration_args(row)[0] for row in range(len(obj.iterations))
            ] == [it.thread for it in obj.iterations]
    assert [rebased.stp_args(row)[0] for row in range(len(obj.stp_samples))
            ] == [s.thread for s in obj.stp_samples]
    check_views(rebased, rebase_objects(obj, delta))


def rebase_objects(obj, delta):
    """The oracle with every time moved by ``delta``, rebuilt by replay."""
    out = ObjectRecorder()
    for item in obj.items.values():
        out.on_alloc(*item_args(item)[:-1], item.t_alloc + delta)
        for hook, touches in (("on_get", item.gets), ("on_skip", item.skips)):
            for touch in touches:
                getattr(out, hook)(item.item_id, touch.conn_id, touch.consumer,
                                   touch.t + delta)
        if item.t_free is not None:
            out.on_free(item.item_id, item.t_free + delta)
    for it in obj.iterations:
        thread, t_start, t_end, *rest = iteration_args(it)
        out.on_iteration(thread, t_start + delta, t_end + delta, *rest)
    for s in obj.stp_samples:
        thread, t, *rest = stp_args(s)
        out.on_stp(thread, t + delta, *rest)
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_merge_recodes_names_of_each_worker(data):
    col_a, obj_a, _ = drive(data, "a", 0)
    col_b, obj_b, _ = drive(data, "né/名", 1000)
    # The first thread of each worker: one code, two names.
    assert col_a.iter_thread[0] == col_b.iter_thread[0]
    assert col_a.threads_of([0]) != col_b.threads_of([0])
    for col in (col_a, col_b):
        col.finalize(60.0)
    merged = merge_traces([col_a, col_b])
    assert canon(merged.items.values()) == canon(
        [*obj_a.items.values(), *obj_b.items.values()])
    assert sorted(canon(merged.iteration_args(row)
                        for row in range(len(merged.iter_t_end)))) == sorted(
        canon(iteration_args(it)
              for it in [*obj_a.iterations, *obj_b.iterations]))
    assert sorted(canon(merged.stp_samples)) == sorted(
        canon([*obj_a.stp_samples, *obj_b.stp_samples]))
    assert set(merged.threads()) == {*obj_a.threads(), *obj_b.threads()}
    assert set(merged.channels()) == {*obj_a.channels(), *obj_b.channels()}
