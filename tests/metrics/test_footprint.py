"""Tests for footprint timelines and the paper's time-weighted formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from record_analyses import build_timeline, byte_seconds

from repro.metrics import Timeline, TraceRecorder
from repro.metrics.footprint import timeline_from_intervals


def _reference_build_timeline(items, t0, t1, predicate=None, end_override=None):
    """The pre-vectorization scalar sweep — ground truth for bit-identity.

    Copied verbatim from the original implementation; the vectorized
    ``build_timeline`` must reproduce its output bit for bit (same stable
    tie-break order, same left-to-right float accumulation).
    """
    if t1 < t0:
        raise ValueError(f"horizon t1={t1} before t0={t0}")
    deltas = []
    for item in items:
        if predicate is not None and not predicate(item):
            continue
        start = item.t_alloc
        end = None
        if end_override is not None:
            end = end_override(item)
        if end is None:
            end = item.t_free if item.t_free is not None else t1
        start = max(start, t0)
        end = min(end, t1)
        if end <= start:
            continue
        deltas.append((start, item.size))
        deltas.append((end, -item.size))
    if not deltas:
        return Timeline(np.array([t0, t1]), np.array([0.0]))
    deltas.sort(key=lambda pair: pair[0])
    times = [t0]
    values = []
    level = 0.0
    for t, delta in deltas:
        if t > times[-1]:
            values.append(level)
            times.append(t)
        level += delta
    if times[-1] < t1:
        values.append(level)
        times.append(t1)
    elif len(values) < len(times) - 1:
        values.append(level)
    return Timeline(np.array(times, dtype=float), np.array(values, dtype=float))


def rec_with_items(spec, horizon=10.0):
    """spec: list of (t_alloc, t_free_or_None, size)."""
    rec = TraceRecorder()
    for idx, (t0, t1, size) in enumerate(spec, start=1):
        rec.on_alloc(
            item_id=idx, channel="ch", node="n0", ts=idx, size=size,
            producer="p", parents=(), t=t0,
        )
        if t1 is not None:
            rec.on_free(idx, t=t1)
    rec.finalize(horizon)
    return rec


class TestTimelineClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            Timeline(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Timeline(np.array([0.0]), np.array([]))
        with pytest.raises(ValueError):
            Timeline(np.array([1.0, 0.0]), np.array([5.0]))

    def test_mean_single_interval(self):
        tl = Timeline(np.array([0.0, 10.0]), np.array([100.0]))
        assert tl.mean() == 100.0
        assert tl.std() == 0.0
        assert tl.peak() == 100.0

    def test_mean_weighted_by_interval_length(self):
        # 100 bytes for 9 s, 1000 bytes for 1 s -> mean 190
        tl = Timeline(np.array([0.0, 9.0, 10.0]), np.array([100.0, 1000.0]))
        assert tl.mean() == pytest.approx(190.0)

    def test_std_matches_hand_computation(self):
        tl = Timeline(np.array([0.0, 5.0, 10.0]), np.array([0.0, 100.0]))
        assert tl.mean() == pytest.approx(50.0)
        assert tl.std() == pytest.approx(50.0)

    def test_at(self):
        tl = Timeline(np.array([0.0, 5.0, 10.0]), np.array([1.0, 2.0]))
        assert tl.at(0.0) == 1.0
        assert tl.at(4.99) == 1.0
        assert tl.at(5.0) == 2.0
        assert tl.at(10.0) == 2.0
        with pytest.raises(ValueError):
            tl.at(11.0)

    def test_sample(self):
        tl = Timeline(np.array([0.0, 5.0, 10.0]), np.array([1.0, 3.0]))
        ts, vals = tl.sample(5)
        assert list(ts) == [0.0, 2.5, 5.0, 7.5, 10.0]
        assert list(vals) == [1.0, 1.0, 3.0, 3.0, 3.0]
        with pytest.raises(ValueError):
            tl.sample(1)

    def test_integral(self):
        tl = Timeline(np.array([0.0, 2.0, 10.0]), np.array([5.0, 1.0]))
        assert tl.integral() == pytest.approx(18.0)


class TestBuildTimeline:
    def test_single_item(self):
        rec = rec_with_items([(2.0, 6.0, 100)])
        tl = build_timeline(rec.items.values(), 0.0, 10.0)
        assert tl.at(1.0) == 0.0
        assert tl.at(3.0) == 100.0
        assert tl.at(7.0) == 0.0
        assert tl.mean() == pytest.approx(40.0)  # 100 * 4/10

    def test_overlapping_items_stack(self):
        rec = rec_with_items([(0.0, 4.0, 100), (2.0, 6.0, 50)])
        tl = build_timeline(rec.items.values(), 0.0, 10.0)
        assert tl.at(1.0) == 100.0
        assert tl.at(3.0) == 150.0
        assert tl.at(5.0) == 50.0
        assert tl.peak() == 150.0

    def test_unfreed_item_extends_to_horizon(self):
        rec = rec_with_items([(5.0, None, 200)])
        tl = build_timeline(rec.items.values(), 0.0, 10.0)
        assert tl.at(9.9) == 200.0
        assert tl.mean() == pytest.approx(100.0)

    def test_predicate_filters(self):
        rec = rec_with_items([(0.0, 10.0, 100), (0.0, 10.0, 999)])
        tl = build_timeline(
            rec.items.values(), 0.0, 10.0, predicate=lambda i: i.size == 100
        )
        assert tl.mean() == pytest.approx(100.0)

    def test_end_override(self):
        rec = rec_with_items([(0.0, 10.0, 100)])
        tl = build_timeline(
            rec.items.values(), 0.0, 10.0, end_override=lambda i: 5.0
        )
        assert tl.mean() == pytest.approx(50.0)

    def test_empty_is_zero(self):
        tl = build_timeline([], 0.0, 10.0)
        assert tl.mean() == 0.0
        assert tl.duration == 10.0

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            build_timeline([], 5.0, 1.0)

    def test_instantaneous_item_ignored(self):
        rec = rec_with_items([(3.0, 3.0, 100)])
        tl = build_timeline(rec.items.values(), 0.0, 10.0)
        assert tl.mean() == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 9.0),
                st.floats(0.1, 10.0),
                st.integers(1, 1000),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_mean_equals_byte_seconds_over_duration(self, raw):
        spec = []
        for t0, dur, size in raw:
            t1 = min(10.0, t0 + dur)
            spec.append((t0, t1 if t1 > t0 else None, size))
        rec = rec_with_items(spec)
        tl = build_timeline(rec.items.values(), 0.0, 10.0)
        bs = byte_seconds(rec.items.values(), 10.0)
        assert tl.integral() == pytest.approx(bs, rel=1e-9)
        assert tl.mean() == pytest.approx(bs / 10.0, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 9.0), st.floats(0.1, 5.0), st.integers(1, 100)),
            min_size=1,
            max_size=10,
        )
    )
    def test_timeline_never_negative(self, raw):
        spec = [(t0, min(10.0, t0 + d), s) for t0, d, s in raw]
        rec = rec_with_items(spec)
        tl = build_timeline(rec.items.values(), 0.0, 10.0)
        assert np.all(tl.values >= 0)


class TestVectorizedMatchesReference:
    """The numpy sweep must be bit-identical to the scalar original."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 10.0),
                st.one_of(st.none(), st.floats(0.0, 12.0)),
                st.integers(1, 1000),
            ),
            min_size=0,
            max_size=25,
        )
    )
    def test_build_timeline_matches_reference(self, raw):
        spec = [
            (t0, t1 if (t1 is not None and t1 > t0) else None, size)
            for t0, t1, size in raw
        ]
        rec = rec_with_items(spec)
        got = build_timeline(rec.items.values(), 0.0, 10.0)
        want = _reference_build_timeline(rec.items.values(), 0.0, 10.0)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values, want.values)

    def test_matches_reference_with_predicate_and_override(self):
        rec = rec_with_items(
            [(0.0, 4.0, 100), (1.0, None, 30), (2.0, 2.0, 7), (3.0, 9.0, 64)]
        )
        predicate = lambda item: item.size != 30  # noqa: E731
        override = lambda item: 6.0 if item.size == 64 else None  # noqa: E731
        got = build_timeline(
            rec.items.values(), 0.0, 10.0,
            predicate=predicate, end_override=override,
        )
        want = _reference_build_timeline(
            rec.items.values(), 0.0, 10.0,
            predicate=predicate, end_override=override,
        )
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values, want.values)

    def test_simultaneous_deltas_keep_schedule_order(self):
        # Three items touching t=3.0 from both sides: the stable sort's
        # tie-break (emission order) decides the accumulation order.
        rec = rec_with_items([(0.0, 3.0, 10), (3.0, 7.0, 20), (3.0, 3.5, 5)])
        got = build_timeline(rec.items.values(), 0.0, 10.0)
        want = _reference_build_timeline(rec.items.values(), 0.0, 10.0)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values, want.values)
        assert got.at(3.0) == 25.0

    def test_timeline_from_intervals_direct(self):
        starts = np.array([2.0, 4.0])
        ends = np.array([6.0, 12.0])
        sizes = np.array([100.0, 10.0])
        tl = timeline_from_intervals(starts, ends, sizes, 0.0, 10.0)
        assert tl.at(3.0) == 100.0
        assert tl.at(5.0) == 110.0
        assert tl.at(9.0) == 10.0  # clamped at the horizon
        # Inputs must not be mutated by the internal clamping.
        assert ends[1] == 12.0

    def test_timeline_from_intervals_bad_horizon(self):
        with pytest.raises(ValueError):
            timeline_from_intervals(
                np.array([1.0]), np.array([2.0]), np.array([1.0]), 5.0, 1.0
            )


class TestByteSeconds:
    def test_simple(self):
        rec = rec_with_items([(0.0, 4.0, 100), (0.0, None, 10)])
        assert byte_seconds(rec.items.values(), 10.0) == pytest.approx(500.0)

    def test_predicate(self):
        rec = rec_with_items([(0.0, 4.0, 100), (0.0, 10.0, 10)])
        assert byte_seconds(
            rec.items.values(), 10.0, predicate=lambda i: i.size == 10
        ) == pytest.approx(100.0)
