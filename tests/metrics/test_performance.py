"""Tests for latency / throughput / jitter metrics."""

import numpy as np
import pytest

from repro.metrics import (
    TraceRecorder,
    jitter,
    latency_samples,
    latency_stats,
    output_times,
    thread_utilization,
    throughput_fps,
)


def make_rec():
    rec = TraceRecorder()

    def alloc(item_id, t, parents=()):
        rec.on_alloc(
            item_id=item_id, channel="c", node="n", ts=item_id, size=1,
            producer="p", parents=parents, t=t,
        )

    # frame 1 at t=0, derived 2 at t=1 (parent 1), delivered at t=2
    alloc(1, 0.0)
    alloc(2, 1.0, parents=(1,))
    rec.on_get(2, 1, "gui", 1.9)
    rec.on_iteration("gui", 1.8, 2.0, 0.1, 0, 0, (2,), (), is_sink=True)
    # frame 3 at t=2, derived 4 at t=2.5, delivered at t=3.5
    alloc(3, 2.0)
    alloc(4, 2.5, parents=(3,))
    rec.on_get(4, 1, "gui", 3.2)
    rec.on_iteration("gui", 3.0, 3.5, 0.1, 0, 0, (4,), (), is_sink=True)
    # a third delivery for jitter
    alloc(5, 4.0)
    alloc(6, 4.2, parents=(5,))
    rec.on_get(6, 1, "gui", 4.4)
    rec.on_iteration("gui", 4.4, 4.6, 0.1, 0, 0, (6,), (), is_sink=True)
    rec.finalize(10.0)
    return rec


class TestLatency:
    def test_samples_anchor_on_source_creation(self):
        samples = list(latency_samples(make_rec()))
        assert samples == [pytest.approx(2.0), pytest.approx(1.5), pytest.approx(0.6)]

    def test_stats(self):
        mean, std = latency_stats(make_rec())
        arr = np.array([2.0, 1.5, 0.6])
        assert mean == pytest.approx(arr.mean())
        assert std == pytest.approx(arr.std())

    def test_no_deliveries_is_nan(self):
        rec = TraceRecorder()
        rec.finalize(1.0)
        mean, std = latency_stats(rec)
        assert np.isnan(mean) and np.isnan(std)

    def test_multi_hop_lineage_uses_oldest_source(self):
        rec = TraceRecorder()

        def alloc(item_id, t, parents=()):
            rec.on_alloc(
                item_id=item_id, channel="c", node="n", ts=item_id, size=1,
                producer="p", parents=parents, t=t,
            )

        alloc(1, 0.0)          # old frame (whose data took the long path)
        alloc(2, 5.0)          # new frame
        alloc(3, 6.0, parents=(1, 2))  # derived from both
        rec.on_iteration("gui", 6.5, 7.0, 0.1, 0, 0, (3,), (), is_sink=True)
        rec.finalize(10.0)
        # anchor is the OLDEST source ancestor: the full pipeline trip
        assert list(latency_samples(rec)) == [pytest.approx(7.0)]


class TestThroughput:
    def test_fps(self):
        assert throughput_fps(make_rec()) == pytest.approx(0.3)  # 3 / 10 s

    def test_empty(self):
        rec = TraceRecorder()
        rec.finalize(10.0)
        assert throughput_fps(rec) == 0.0


class TestJitter:
    def test_output_times_sorted(self):
        assert output_times(make_rec()) == [2.0, 3.5, 4.6]

    def test_jitter_is_std_of_diffs(self):
        # diffs: 1.5, 1.1 -> std = 0.2
        assert jitter(make_rec()) == pytest.approx(np.std([1.5, 1.1]))

    def test_too_few_outputs_nan(self):
        rec = TraceRecorder()
        rec.on_iteration("gui", 0, 1, 0.1, 0, 0, (), (), is_sink=True)
        rec.finalize(2.0)
        assert np.isnan(jitter(rec))

    def test_perfectly_regular_output_zero_jitter(self):
        rec = TraceRecorder()
        for k in range(10):
            rec.on_iteration("gui", k * 1.0, k * 1.0 + 0.5, 0.1, 0, 0, (), (), is_sink=True)
        rec.finalize(20.0)
        assert jitter(rec) == pytest.approx(0.0)


class TestUtilization:
    def test_decomposition(self):
        rec = TraceRecorder()
        rec.on_iteration("t", 0.0, 1.0, 0.5, 0.3, 0.2, (), ())
        rec.on_iteration("t", 1.0, 2.0, 0.5, 0.3, 0.2, (), ())
        rec.finalize(2.0)
        u = thread_utilization(rec, "t")
        assert u["compute"] == pytest.approx(0.5)
        assert u["blocked"] == pytest.approx(0.3)
        assert u["slept"] == pytest.approx(0.2)
        assert u["iterations"] == 2

    def test_unknown_thread(self):
        rec = TraceRecorder()
        rec.finalize(1.0)
        assert thread_utilization(rec, "ghost")["iterations"] == 0


class TestLatencyByThread:
    def test_groups_by_sink_thread(self):
        from repro.metrics.performance import latency_samples_by_thread

        rec = TraceRecorder()

        def alloc(item_id, t, parents=()):
            rec.on_alloc(item_id=item_id, channel="c", node="n", ts=item_id,
                         size=1, producer="p", parents=parents, t=t)

        # tenant a: frame at t=0 delivered at t=2
        alloc(1, 0.0)
        rec.on_iteration("a/gui", 1.8, 2.0, 0.1, 0, 0, (1,), (),
                         is_sink=True)
        # tenant b: frame at t=1 delivered at t=1.5
        alloc(2, 1.0)
        rec.on_iteration("b/gui", 1.2, 1.5, 0.1, 0, 0, (2,), (),
                         is_sink=True)
        rec.finalize(5.0)
        grouped = latency_samples_by_thread(rec)
        assert set(grouped) == {"a/gui", "b/gui"}
        assert list(grouped["a/gui"]) == [pytest.approx(2.0)]
        assert list(grouped["b/gui"]) == [pytest.approx(0.5)]

    def test_warmup_filters_early_deliveries(self):
        from repro.metrics.performance import latency_samples_by_thread

        rec = TraceRecorder()
        rec.on_alloc(item_id=1, channel="c", node="n", ts=1, size=1,
                     producer="p", parents=(), t=0.0)
        rec.on_iteration("gui", 0.5, 1.0, 0.1, 0, 0, (1,), (), is_sink=True)
        rec.finalize(5.0)
        assert latency_samples_by_thread(rec, warmup=2.0) == {}

    def test_agrees_with_flat_samples(self):
        from repro.metrics.performance import latency_samples_by_thread

        rec = make_rec()
        grouped = latency_samples_by_thread(rec)
        flat = sorted(latency_samples(rec))
        assert sorted(s for v in grouped.values() for s in v) == flat
