"""Tests for the trace recorder."""

import pytest

from repro.errors import TraceError
from repro.metrics import TraceRecorder


def alloc(rec, item_id, t=0.0, channel="ch", ts=0, size=10, parents=()):
    rec.on_alloc(
        item_id=item_id,
        channel=channel,
        node="n0",
        ts=ts,
        size=size,
        producer="p",
        parents=parents,
        t=t,
    )


class TestItemLifecycle:
    def test_alloc_get_free(self):
        rec = TraceRecorder()
        alloc(rec, 1, t=1.0)
        rec.on_get(1, conn_id=5, consumer="c", t=2.0)
        rec.on_free(1, t=3.0)
        trace = rec.items[1]
        assert trace.t_alloc == 1.0
        assert trace.t_free == 3.0
        assert trace.ever_got
        assert trace.last_get_time() == 2.0

    def test_duplicate_alloc_rejected(self):
        rec = TraceRecorder()
        alloc(rec, 1)
        with pytest.raises(TraceError):
            alloc(rec, 1)

    def test_double_free_rejected(self):
        rec = TraceRecorder()
        alloc(rec, 1)
        rec.on_free(1, t=1.0)
        with pytest.raises(TraceError):
            rec.on_free(1, t=2.0)

    def test_free_before_alloc_time_rejected(self):
        rec = TraceRecorder()
        alloc(rec, 1, t=5.0)
        with pytest.raises(TraceError):
            rec.on_free(1, t=4.0)

    def test_unknown_item_rejected(self):
        rec = TraceRecorder()
        with pytest.raises(TraceError):
            rec.on_get(99, 1, "c", 0.0)
        with pytest.raises(TraceError):
            rec.on_free(99, 0.0)

    def test_lifetime_unfreed_extends_to_horizon(self):
        rec = TraceRecorder()
        alloc(rec, 1, t=2.0)
        assert rec.items[1].lifetime(horizon=10.0) == 8.0

    def test_skip_recording(self):
        rec = TraceRecorder()
        alloc(rec, 1)
        rec.on_skip(1, conn_id=2, consumer="c", t=1.0)
        assert len(rec.items[1].skips) == 1
        assert not rec.items[1].ever_got


class TestIterations:
    def test_indices_per_thread(self):
        rec = TraceRecorder()
        for _ in range(3):
            rec.on_iteration("a", 0, 1, 0.5, 0, 0, (), ())
        rec.on_iteration("b", 0, 1, 0.5, 0, 0, (), ())
        assert [it.index for it in rec.iterations_of("a")] == [0, 1, 2]
        assert [it.index for it in rec.iterations_of("b")] == [0]

    def test_sink_iterations_filter(self):
        rec = TraceRecorder()
        rec.on_iteration("gui", 0, 1, 0.1, 0, 0, (1,), (), is_sink=True)
        rec.on_iteration("td", 0, 1, 0.1, 0, 0, (), ())
        assert len(rec.sink_iterations()) == 1
        assert rec.sink_iterations()[0].thread == "gui"

    def test_threads_listing(self):
        rec = TraceRecorder()
        rec.on_iteration("a", 0, 1, 0, 0, 0, (), ())
        rec.on_iteration("b", 0, 1, 0, 0, 0, (), ())
        rec.on_iteration("a", 1, 2, 0, 0, 0, (), ())
        assert rec.threads() == ["a", "b"]


class TestStpSamples:
    def test_recorded_by_default(self):
        rec = TraceRecorder()
        rec.on_stp("t", 1.0, 0.1, 0.2, None, 0.0)
        assert len(rec.stp_samples) == 1

    def test_disabled(self):
        rec = TraceRecorder(record_stp=False)
        rec.on_stp("t", 1.0, 0.1, 0.2, None, 0.0)
        assert rec.stp_samples == []


class TestFinalize:
    def test_duration(self):
        rec = TraceRecorder()
        rec.finalize(12.5)
        assert rec.duration == 12.5

    def test_double_finalize_rejected(self):
        rec = TraceRecorder()
        rec.finalize(1.0)
        with pytest.raises(TraceError):
            rec.finalize(2.0)

    def test_duration_before_finalize_rejected(self):
        with pytest.raises(TraceError):
            _ = TraceRecorder().duration

    def test_channel_listing(self):
        rec = TraceRecorder()
        alloc(rec, 1, channel="a")
        alloc(rec, 2, channel="b", ts=1)
        assert rec.channels() == ["a", "b"]
        assert len(rec.items_of_channel("a")) == 1


class TestViewIndexes:
    """The lazily built indexes must stay coherent with the raw trace."""

    def test_iteration_index_extends_after_queries(self):
        rec = TraceRecorder()
        rec.on_iteration("a", 0, 1, 0.1, 0, 0, (), ())
        assert [it.index for it in rec.iterations_of("a")] == [0]
        # Records arriving after a query must show up on the next query.
        rec.on_iteration("a", 1, 2, 0.1, 0, 0, (), ())
        rec.on_iteration("b", 1, 2, 0.1, 0, 0, (), (), is_sink=True)
        assert [it.index for it in rec.iterations_of("a")] == [0, 1]
        assert [it.thread for it in rec.sink_iterations()] == ["b"]
        assert rec.threads() == ["a", "b"]

    def test_channel_index_extends_after_queries(self):
        rec = TraceRecorder()
        alloc(rec, 1, channel="x")
        assert len(rec.items_of_channel("x")) == 1
        alloc(rec, 2, channel="x", ts=1)
        alloc(rec, 3, channel="y", ts=2)
        assert [i.item_id for i in rec.items_of_channel("x")] == [1, 2]
        assert rec.channels() == ["x", "y"]

    def test_unknown_keys_return_empty(self):
        rec = TraceRecorder()
        assert rec.items_of_channel("nope") == []
        assert rec.iterations_of("nope") == []

    def test_finalize_drops_and_rebuilds_indexes(self):
        rec = TraceRecorder()
        alloc(rec, 1, channel="a")
        rec.on_iteration("t", 0, 1, 0.1, 0, 0, (), ())
        assert rec.channels() == ["a"]  # builds indexes mid-run
        rec.finalize(5.0)
        assert rec.channels() == ["a"]
        assert [it.thread for it in rec.iterations_of("t")] == ["t"]

    def test_views_are_read_only(self):
        """Rows come from the hooks and nowhere else: ``items`` is a
        ``Mapping`` and the record lists are ``Sequence``s, without
        item assignment, ``append`` or ``sort``."""
        rec = TraceRecorder()
        alloc(rec, 1, channel="a")
        trace = rec.items[1]
        with pytest.raises(TypeError):
            rec.items[2] = trace
        with pytest.raises(AttributeError):
            rec.iterations.append(None)
        with pytest.raises(AttributeError):
            rec.stp_samples.sort()
        with pytest.raises(AttributeError):
            rec.items = {}
        assert list(rec.items) == [1] and rec.channels() == ["a"]


class TestViewsShowLiveState:
    """A record is a snapshot of its row; a view is the rows as they are."""

    def test_a_view_taken_before_a_free_sees_it(self):
        rec = TraceRecorder()
        alloc(rec, 1, t=1.0)
        items = rec.items
        before = items[1]
        rec.on_get(1, conn_id=3, consumer="c", t=1.5)
        rec.on_free(1, t=2.0)
        assert before.t_free is None and before.gets == []
        assert items[1].t_free == 2.0
        assert [(g.conn_id, g.consumer, g.t) for g in items[1].gets] == [
            (3, "c", 1.5)]

    def test_views_grow_with_the_run(self):
        rec = TraceRecorder()
        iterations, samples, values = (
            rec.iterations, rec.stp_samples, rec.items.values())
        assert len(iterations) == len(samples) == len(values) == 0
        alloc(rec, 7)
        rec.on_iteration("a", 0.0, 1.0, 0.5, 0.0, 0.0, (), (7,))
        rec.on_stp("a", 1.0, 0.5, None, float("nan"), 0.0)
        assert len(iterations) == len(samples) == len(values) == 1
        assert iterations[0].outputs == (7,) and iterations[-1].index == 0
        assert samples[0].summary is None
        assert samples[0].throttle_target != samples[0].throttle_target  # NaN

    def test_sequence_protocol(self):
        rec = TraceRecorder()
        for k in range(5):
            rec.on_iteration("a" if k % 2 else "b", k, k + 1, 0.1, 0, 0, (), ())
        its = rec.iterations
        assert [it.t_start for it in its[1:4]] == [1, 2, 3]
        assert [it.t_start for it in its[::-1]] == [4, 3, 2, 1, 0]
        assert its[-1].thread == "b" and its[-1].index == 2
        assert [it.index for it in rec.iterations_of("a")[1:]] == [1]
        assert its == list(its) and its[:2] == its[:2] and its != its[:2]
        with pytest.raises(IndexError):
            its[5]
        with pytest.raises(KeyError):
            rec.items[99]
        assert rec.items.get(99) is None and 99 not in rec.items

    def test_the_recorder_holds_no_view(self):
        rec = TraceRecorder()
        alloc(rec, 1)
        rec.on_get(1, 1, "c", 0.5)
        rec.on_iteration("a", 0, 1, 0.1, 0, 0, (1,), (), is_sink=True)
        views = [rec.items, rec.items.values(), rec.iterations,
                 rec.sink_iterations(), rec.items_of_channel("ch")]
        assert all(len(v) == 1 for v in views) and rec.items[1].gets
        view_types = tuple({type(v) for v in views})
        assert not any(isinstance(value, view_types)
                       for value in vars(rec).values())
