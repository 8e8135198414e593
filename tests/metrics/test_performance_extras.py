"""Tests for warmup trimming and latency percentiles."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics import (
    TraceRecorder,
    jitter,
    latency_percentiles,
    latency_samples,
    latency_stats,
    throughput_fps,
)
from repro.metrics.performance import percentile


def make_rec():
    """Ten deliveries, one per second; latency grows 1..10 s."""
    rec = TraceRecorder()
    for k in range(1, 11):
        rec.on_alloc(item_id=k, channel="c", node="n", ts=k, size=1,
                     producer="p", parents=(), t=float(k))
        rec.on_iteration("gui", k + 0.5, float(k) + float(k), 0.1, 0, 0,
                         (k,), (), is_sink=True)
    rec.finalize(20.0)
    return rec


class TestWarmup:
    def test_latency_warmup_drops_early_samples(self):
        rec = make_rec()
        all_samples = latency_samples(rec)
        late = latency_samples(rec, warmup=10.0)
        assert len(all_samples) == 10
        assert len(late) < 10
        assert min(late) >= 5.0  # early (small-latency) deliveries dropped

    def test_throughput_warmup_window(self):
        rec = make_rec()
        # all 10 deliveries in 20 s
        assert throughput_fps(rec) == pytest.approx(0.5)
        # deliveries with t_end >= 10: k=5..10 -> 6 over 10 s
        assert throughput_fps(rec, warmup=10.0) == pytest.approx(0.6)

    def test_throughput_warmup_beyond_end(self):
        assert throughput_fps(make_rec(), warmup=30.0) == 0.0

    def test_jitter_warmup(self):
        rec = make_rec()
        # output times are k*2 for k=1..10 -> perfectly regular
        assert jitter(rec) == pytest.approx(0.0)
        assert jitter(rec, warmup=10.0) == pytest.approx(0.0)

    def test_stats_warmup(self):
        rec = make_rec()
        mean_all, _ = latency_stats(rec)
        mean_late, _ = latency_stats(rec, warmup=10.0)
        assert mean_late > mean_all


class TestPercentiles:
    def test_values(self):
        rec = make_rec()
        pct = latency_percentiles(rec, percentiles=(50.0, 100.0))
        samples = np.array(latency_samples(rec))
        assert pct[50.0] == pytest.approx(np.percentile(samples, 50))
        assert pct[100.0] == pytest.approx(samples.max())

    def test_empty_is_nan(self):
        rec = TraceRecorder()
        rec.finalize(1.0)
        pct = latency_percentiles(rec)
        assert all(np.isnan(v) for v in pct.values())

    def test_monotone(self):
        pct = latency_percentiles(make_rec(), percentiles=(10.0, 50.0, 90.0))
        assert pct[10.0] <= pct[50.0] <= pct[90.0]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_VALUES = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),  # b - a cannot overflow
    st.sampled_from([-2.0, -0.5, 0.0, 0.5, 0.5, 3.0]),  # ties
)
_QS = st.one_of(st.sampled_from([0, 50, 95, 100, 50.0, 95.0]),
                st.floats(0, 100))


class TestPercentileWithoutNumpy:
    @settings(max_examples=500, deadline=None)
    @given(xs=st.lists(_VALUES, min_size=1, max_size=40), q=_QS)
    @example(xs=[7.25], q=95)
    @example(xs=[-3.0, -3.0, 1.0], q=50)
    @example(xs=[1.0, 2.0, 3.0, 4.0, 5.0], q=95)
    def test_matches_numpy_bit_for_bit(self, xs, q):
        got, want = percentile(xs, q), float(np.percentile(xs, q))
        # Equal signed zeros are one tie to numpy's unstable partition,
        # which may hand back either of them.
        assert _bits(got) == _bits(want) or got == want == 0.0

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    @pytest.mark.parametrize("q", [-50, -1e-9, 100.5, 1e9, float("nan")])
    def test_a_q_outside_0_to_100_raises_as_numpy_does(self, q):
        # Linear interpolation past either end would return a value
        # outside the samples' range: 5.5 for q = -50 here.
        with pytest.raises(ValueError, match=r"range \[0, 100\]"):
            np.percentile([1, 2, 3, 4], q)
        with pytest.raises(ValueError, match=r"range \[0, 100\]"):
            percentile([1, 2, 3, 4], q)
        with pytest.raises(ValueError, match=r"range \[0, 100\]"):
            percentile([], q)
        with pytest.raises(ValueError, match=r"range \[0, 100\]"):
            latency_percentiles(make_rec(), percentiles=(50.0, q))
