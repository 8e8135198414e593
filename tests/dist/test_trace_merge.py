"""rebase_trace + merge_traces: the glue that makes per-worker
wall-clock traces analyzable as one run, and the pickle a worker's trace
crosses the wire as."""

import pickle

import pytest

from repro.errors import TraceError
from repro.experiment import ExperimentSpec, run_experiment
from repro.metrics.performance import sink_latencies
from repro.metrics.recorder import _FOLDED, TraceRecorder
from repro.metrics.trace_io import (
    merge_traces,
    rebase_trace,
    trace_from_dict,
    trace_to_dict,
)


def _mini_trace(base: float, item_id: int, thread: str) -> TraceRecorder:
    rec = TraceRecorder()
    rec.t_start = base
    rec.on_alloc(item_id, "c", "n0", ts=0, size=10, producer=thread,
                 parents=(), t=base + 0.1)
    rec.on_get(item_id, 0, "sink", t=base + 0.2)
    rec.on_free(item_id, t=base + 0.3)
    rec.on_iteration(thread, t_start=base, t_end=base + 0.5, compute=0.2,
                     blocked=0.1, slept=0.0, inputs=(), outputs=(item_id,))
    rec.on_stp(thread, t=base + 0.5, current_stp=0.5, summary=0.5,
               throttle_target=None, slept=0.0)
    rec.finalize(base + 1.0)
    return rec


class TestRebase:
    def test_rebase_shifts_everything_uniformly(self):
        rec = rebase_trace(_mini_trace(1_000_000.0, 1, "src"))
        assert rec.t_start == 0.0
        assert rec.t_end == pytest.approx(1.0)
        item = rec.items[1]
        assert item.t_alloc == pytest.approx(0.1)
        assert item.t_free == pytest.approx(0.3)
        assert item.gets[0].t == pytest.approx(0.2)
        assert rec.iterations[0].t_start == pytest.approx(0.0)
        assert rec.stp_samples[0].t == pytest.approx(0.5)

    def test_rebase_preserves_durations(self):
        rec = _mini_trace(5_000.0, 1, "src")
        before = rec.duration
        assert rebase_trace(rec).duration == pytest.approx(before)

    def test_rebase_noop_when_already_based(self):
        rec = _mini_trace(0.0, 1, "src")
        assert rebase_trace(rec) is rec
        assert rec.t_start == 0.0

    @pytest.mark.parametrize("wire", [False, True], ids=["local", "unpickled"])
    def test_rebase_shifts_an_early_use_for_a_later_alloc(self, wire):
        # A sink consumes item 9 before item 9 is allocated: the recorder
        # keeps the iteration's end for the alloc, which must move with it.
        rec = TraceRecorder()
        rec.t_start = 100.0
        rec.on_iteration("sink", t_start=100.0, t_end=101.0, compute=0.0,
                         blocked=0.0, slept=0.0, inputs=(9,), outputs=(),
                         is_sink=True)
        rec.finalize(102.0)
        if wire:
            rec = pickle.loads(pickle.dumps(rec))
        rebase_trace(rec)
        rec.on_alloc(9, "c", "n0", ts=0, size=1, producer="src", parents=(),
                     t=0.5)
        assert list(rec.iter_t_end) == [1.0]
        assert list(rec.item_igc_end) == [1.0]

    def test_rebase_requires_finalized(self):
        rec = TraceRecorder()
        with pytest.raises(TraceError, match="finalize"):
            rebase_trace(rec)


class TestMerge:
    def test_merge_unions_items_and_orders_iterations(self):
        a = _mini_trace(100.0, 1, "src")
        b = _mini_trace(100.2, 2, "dst")
        merged = merge_traces([a, b])
        assert set(merged.items) == {1, 2}
        assert merged.t_start == 100.0
        assert merged.t_end == pytest.approx(101.2)
        # iterations sorted by completion time across workers
        ends = [it.t_end for it in merged.iterations]
        assert ends == sorted(ends)
        # per-thread indexes renumbered from zero
        assert [it.index for it in merged.iterations_of("src")] == [0]
        assert [it.index for it in merged.iterations_of("dst")] == [0]

    def test_merge_rejects_duplicate_item_ids(self):
        with pytest.raises(TraceError, match="duplicate item id"):
            merge_traces([_mini_trace(0.0, 7, "a"), _mini_trace(1.0, 7, "b")])

    def test_merge_rejects_unfinalized(self):
        rec = TraceRecorder()
        with pytest.raises(TraceError, match="finalize"):
            merge_traces([rec])

    def test_merge_empty_raises(self):
        with pytest.raises(TraceError, match="at least one"):
            merge_traces([])

    def test_merged_trace_survives_dict_roundtrip(self):
        merged = merge_traces([_mini_trace(10.0, 1, "src"),
                               _mini_trace(10.5, 2, "dst")])
        again = trace_from_dict(trace_to_dict(merged))
        assert trace_to_dict(again) == trace_to_dict(merged)

    def test_merge_then_rebase_leaves_the_inputs_alone(self):
        """The merged trace owns its rows. It used to share the workers'
        record objects, so rebasing it shifted a worker's items and
        iterations under a ``t_start`` that stayed put, and the merge
        renumbered iteration indexes on the workers' own traces."""
        a = _mini_trace(10.0, 1, "src")
        a.t_end = None  # one more iteration, completing *before* the first
        a.on_iteration("src", t_start=10.0, t_end=10.1, compute=0.05,
                       blocked=0.0, slept=0.0, inputs=(), outputs=())
        a.finalize(11.0)
        b = _mini_trace(10.2, 2, "dst")
        before = [trace_to_dict(a), trace_to_dict(b)]
        merged = rebase_trace(merge_traces([a, b]))
        assert merged.t_start == 0.0
        assert merged.items[1].t_alloc == pytest.approx(0.1)
        assert [(it.index, it.t_end) for it in merged.iterations_of("src")] \
            == [(0, pytest.approx(0.1)), (1, pytest.approx(0.5))]
        assert [trace_to_dict(a), trace_to_dict(b)] == before
        assert a.items[1].t_alloc == pytest.approx(10.1)


def _wire(rec: TraceRecorder) -> TraceRecorder:
    """``rec`` as the launcher receives it in a worker's ``STATS`` frame."""
    return pickle.loads(pickle.dumps(rec, protocol=pickle.HIGHEST_PROTOCOL))


def _worker_traces() -> list:
    """A sim tracker run cut into one trace per node, as ``proc`` records
    it: each node's items (with their gets and skips) and the iterations
    and STP samples of the threads producing there. Items whose parents
    another node allocated leave anchors pending; iterations consuming
    another node's items leave early uses."""
    data = trace_to_dict(run_experiment(ExperimentSpec(
        config="config2", policy="aru-min", seed=0, horizon=3.0)).trace)
    node_of = {item["producer"]: item["node"] for item in data["items"]}
    nodes = sorted(set(node_of.values()))
    home = {thread: node_of.get(thread, nodes[-1])
            for thread in (it["thread"] for it in data["iterations"])}
    return [trace_from_dict({
        **data,
        "items": [i for i in data["items"] if i["node"] == node],
        "iterations": [i for i in data["iterations"]
                       if home[i["thread"]] == node],
        "stp_samples": [s for s in data["stp_samples"]
                        if home[s["thread"]] == node],
    }) for node in nodes]


class TestWireState:
    def test_merge_of_wire_states_matches_merge_of_dict_round_trips(self):
        workers = _worker_traces()
        assert any(len(w._pending_row) for w in workers)
        assert any(w._early_uses for w in workers)
        received = [_wire(w) for w in workers]
        for sent, got in zip(workers, received):
            state = sent.__getstate__()
            assert not {"item_anchor", "_pending_row", "_iter_counters",
                        "_early_uses", "_by_thread", "_codes"} & set(state)
            assert trace_to_dict(got) == trace_to_dict(sent)
            assert repr(got.item_anchor) == repr(sent.item_anchor)
            assert got._pending_row == sent._pending_row
            assert got._early_uses == sent._early_uses
            assert got._iter_counters == sent._iter_counters
        over_wire = merge_traces(received)
        over_dicts = merge_traces(
            [trace_from_dict(trace_to_dict(w)) for w in workers])
        assert trace_to_dict(over_wire) == trace_to_dict(over_dicts)
        assert sink_latencies(over_wire) == sink_latencies(over_dicts)
        assert len(sink_latencies(over_wire)[1]) > 0

    def test_a_received_trace_folds_when_a_folded_field_is_first_read(self):
        workers = _worker_traces()
        received = [_wire(w) for w in workers]
        merged = merge_traces(received)  # reads nothing folded
        assert len(merged.item_t_alloc) == sum(
            len(w.item_t_alloc) for w in workers)
        for sent, got in zip(workers, received):
            assert not set(_FOLDED) & set(vars(got))
            with pytest.raises(AttributeError, match="_no_such_column"):
                got._no_such_column
            assert got.iteration_count("tracker") == \
                sent.iteration_count("tracker")  # one read folds them all
            assert set(_FOLDED) <= set(vars(got))
            eager = _wire(sent)
            eager._fold_rows()
            for name in _FOLDED:
                assert repr(getattr(got, name)) == repr(getattr(eager, name)) \
                    == repr(getattr(sent, name))
        lean = TraceRecorder(trace_rows=False)
        lean.finalize(1.0)
        assert set(_FOLDED) - {"_early_uses"} <= set(vars(_wire(lean)))
        with pytest.raises(AttributeError):
            _wire(lean)._early_uses

    def test_wire_state_round_trips_a_pending_anchor(self):
        rec = TraceRecorder()
        # Item 2 comes before its parent 1; the sink consumes 2 and an
        # item 9 not allocated yet.
        rec.on_alloc(2, "c", "n0", ts=1, size=8, producer="p", parents=(1,),
                     t=1.0)
        rec.on_iteration("sink", t_start=1.0, t_end=2.0, compute=0.5,
                         blocked=0.0, slept=0.0, inputs=(2, 9), outputs=(),
                         is_sink=True)
        clone = _wire(rec)
        assert "item_anchor" not in rec.__getstate__()
        assert repr(clone.item_anchor) == repr(rec.item_anchor) \
            == "array('d', [nan])"
        assert list(clone._pending_row) == list(rec._pending_row) == [0]
        assert clone._early_uses == rec._early_uses == {9: 2.0}
        assert pickle.dumps(clone) == pickle.dumps(rec)
        # The run goes on in both: the parent resolves the anchor, and
        # item 9, recorded late, takes the end of the iteration that
        # consumed it.
        for r in (rec, clone):
            r.on_alloc(1, "c", "n0", ts=0, size=8, producer="p", parents=(),
                       t=0.25)
            r.on_alloc(9, "c", "n0", ts=2, size=8, producer="p", parents=(),
                       t=1.5)
            r.finalize(3.0)
        assert trace_to_dict(clone) == trace_to_dict(rec)
        assert list(clone.anchors()) == list(rec.anchors()) == [0.25, 0.25, 1.5]
        # Row 0's parent sits on a later row: it stays pending, folded
        # again as on_alloc left it.
        again = _wire(rec)
        assert repr(again.item_anchor) == repr(rec.item_anchor) \
            == "array('d', [nan, 0.25, 1.5])"
        assert list(again._pending_row) == list(rec._pending_row) == [0]
        assert clone.item_igc_end == rec.item_igc_end
        assert sink_latencies(clone) == sink_latencies(rec)
        assert list(sink_latencies(clone)[1]) == [1.75, 0.5]
