"""Rows found by id: the recorder's id runs against a dict oracle, and
latency anchors over traces whose ids are not in one ascending run.

``TraceRecorder.row_of`` replaces an id -> row dict with arithmetic on
runs of consecutive ids; a live run leaves one run, while merged worker
traces and reordered trace files leave several, with parents listed
after their children.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from record_analyses import column_oldest_source_anchor
from record_analyses import latency_samples as record_latency_samples
from record_analyses import (
    latency_samples_by_thread as record_latency_samples_by_thread,
)

from repro.errors import TraceError
from repro.metrics import (
    TraceRecorder,
    latency_samples,
    load_trace,
    merge_traces,
    trace_from_dict,
)
from repro.metrics.performance import latency_samples_by_thread

FIXTURE = (Path(__file__).parent / "data"
           / "tracker_config1_aru_min_seed0_h4.json")

starts = st.integers(-50, 50)
lengths = st.integers(0, 25)


@st.composite
def ascending(draw):
    start = draw(starts)
    return list(range(start, start + draw(lengths)))


@st.composite
def descending(draw):
    return draw(ascending())[::-1]


@st.composite
def gapped(draw):
    return sorted(draw(st.sets(st.integers(-60, 60), max_size=25)))


@st.composite
def interleaved(draw):
    a, b = draw(ascending()), draw(ascending())
    out = []
    for pair in zip(a, b):
        out.extend(pair)
    return out + a[len(b):] + b[len(a):]


@st.composite
def duplicated(draw):
    ids = draw(st.one_of(ascending(), descending(), gapped(), interleaved()))
    for _ in range(draw(st.integers(1, 4))):
        if ids:
            ids.insert(draw(st.integers(0, len(ids))),
                       draw(st.sampled_from(ids)))
    return ids


id_sequences = st.one_of(
    ascending(), descending(), gapped(), interleaved(), duplicated(),
    st.lists(st.integers(-30, 30), max_size=30))


def alloc(rec, item_id):
    rec.on_alloc(item_id, "c", "n0", ts=0, size=1, producer="p",
                 parents=(), t=0.0)


def check_against(rec, oracle, probes):
    assert list(rec.items) == list(oracle)
    assert len(rec.items) == len(oracle)
    for item_id in probes:
        row = oracle.get(item_id)
        assert rec.row_of(item_id) == row
        assert (item_id in rec.items) == (row is not None)
        if row is None:
            with pytest.raises(KeyError):
                rec.items[item_id]
        else:
            assert rec.items[item_id].item_id == item_id


@settings(max_examples=200, deadline=None)
@given(id_sequences)
def test_row_of_matches_a_dict(ids):
    rec, oracle = TraceRecorder(), {}
    probes = range(min(ids, default=0) - 2, max(ids, default=0) + 3)
    for item_id in ids:
        if item_id in oracle:
            with pytest.raises(TraceError) as err:
                alloc(rec, item_id)
            assert str(err.value) == f"duplicate alloc for item {item_id}"
        else:
            alloc(rec, item_id)
            oracle[item_id] = len(oracle)
        check_against(rec, oracle, probes)
    for item_id in probes:
        if item_id in oracle:
            rec.on_get(item_id, 1, "c", 1.0)
            rec.on_skip(item_id, 1, "c", 1.0)
            rec.on_free(item_id, 1.0)
            continue
        for hook, args in (("on_get", (1, "c", 1.0)),
                           ("on_skip", (1, "c", 1.0)),
                           ("on_free", (1.0,))):
            with pytest.raises(TraceError) as err:
                getattr(rec, hook)(item_id, *args)
            assert str(err.value) == f"unknown item {item_id}"
    assert list(rec.touch_item) == [oracle[item_id] for item_id in probes
                                    if item_id in oracle for _ in range(2)]


@pytest.mark.parametrize("key", [1.5, 2.0, "x", None, (1,)])
def test_a_key_that_is_no_integer_is_no_item(key):
    rec = trace_from_dict(json.loads(FIXTURE.read_text()))
    assert rec.row_of(1) is not None and rec.row_of(2) is not None
    assert rec.row_of(key) is None
    assert key not in rec.items
    assert rec.items.get(key) is None
    with pytest.raises(KeyError):
        rec.items[key]


def test_ascending_ids_make_one_run():
    rec = TraceRecorder()
    for item_id in range(7, 107):
        alloc(rec, item_id)
    assert rec.tail_run() == (7, 0, 100)  # every row in the one run


def _split_by_id_range(data, parts):
    """Worker traces of ``data``: its items cut into ``parts`` id ranges,
    the iterations dealt out by thread."""
    items = sorted(data["items"], key=lambda entry: entry["id"])
    size = -(-len(items) // parts)
    threads = sorted({entry["thread"] for entry in data["iterations"]})
    workers = []
    for k in range(parts):
        mine = set(threads[k::parts])
        workers.append(trace_from_dict({
            **data,
            "items": items[k * size:(k + 1) * size],
            "iterations": [entry for entry in data["iterations"]
                           if entry["thread"] in mine],
            "stp_samples": [],
        }))
    return workers


def _latencies_agree(recorder, expected):
    # The anchors folded at allocation, pending rows resolved, are the
    # post-run pass over the lineage columns, NaN for NaN.
    assert repr(recorder.anchors()) == repr(column_oldest_source_anchor(recorder))
    assert list(latency_samples(recorder)) == record_latency_samples(recorder)
    assert latency_samples(recorder) == expected
    assert {thread: list(samples) for thread, samples in
            latency_samples_by_thread(recorder).items()} == (
        record_latency_samples_by_thread(recorder))


def test_merged_workers_in_descending_id_order_keep_every_latency():
    data = json.loads(FIXTURE.read_text())
    expected = latency_samples(trace_from_dict(data))
    assert len(expected) > 10
    merged = merge_traces(_split_by_id_range(data, 3)[::-1])
    assert merged.tail_run() == (1, 124, 62)  # ids 1..62, allocated last
    _latencies_agree(merged, expected)


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_a_reordered_item_table_keeps_every_latency(tmp_path, order):
    data = json.loads(FIXTURE.read_text())
    expected = latency_samples(trace_from_dict(data))
    if order == "reversed":
        data["items"].reverse()
    else:
        random.Random(0).shuffle(data["items"])
    path = tmp_path / "reordered.json"
    path.write_text(json.dumps(data))
    _latencies_agree(load_trace(path), expected)
