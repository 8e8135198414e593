"""rebase_trace + merge_traces: the glue that makes per-worker
wall-clock traces analyzable as one run."""

import pytest

from repro.errors import TraceError
from repro.metrics.recorder import TraceRecorder
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
