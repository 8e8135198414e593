"""Tests for backwardSTP vectors and summary-STP computation (§3.3.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aru import BackwardStpVector, EwmaFilter
from repro.control import FeedbackEndpoint, SummaryStpPolicy, throttle_sleep
from repro.control.signals import Signals

FIG3 = {"B": 337.0, "C": 139.0, "D": 273.0, "E": 544.0, "F": 420.0}


def thread_node(op=None, **kwargs) -> SummaryStpPolicy:
    """A thread node's ARU state: the paper's policy over its vector."""
    return SummaryStpPolicy(BackwardStpVector(op, **kwargs))


def summary(node: SummaryStpPolicy, current_stp):
    """Step 4 for a thread node: ``max(compressed, current_STP)``."""
    return node.advertise(Signals(now=0.0, current_stp=current_stp,
                                  raw_stp=current_stp, iteration_elapsed=0.0))


class TestBackwardStpVector:
    def test_update_and_compress_min(self):
        vec = BackwardStpVector("min")
        for conn, value in FIG3.items():
            vec.update(conn, value)
        assert vec.compressed() == 139.0

    def test_compress_max(self):
        vec = BackwardStpVector("max")
        for conn, value in FIG3.items():
            vec.update(conn, value)
        assert vec.compressed() == 544.0

    def test_empty_vector_has_no_summary(self):
        assert BackwardStpVector("min").compressed() is None

    def test_update_overwrites_slot(self):
        vec = BackwardStpVector("min")
        vec.update("i", 100.0)
        vec.update("i", 50.0)
        assert vec.compressed() == 50.0
        assert len(vec) == 1

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BackwardStpVector().update("i", -1.0)

    def test_snapshot_is_copy(self):
        vec = BackwardStpVector()
        vec.update("i", 5.0)
        snap = vec.snapshot()
        snap["i"] = 999.0
        assert vec.compressed() == 5.0

    def test_per_slot_filtering(self):
        vec = BackwardStpVector("min", summary_filter_factory=lambda: EwmaFilter(0.5))
        vec.update("i", 2.0)
        vec.update("i", 4.0)  # EWMA: 3.0
        assert vec.compressed() == pytest.approx(3.0)

    def test_filters_independent_per_slot(self):
        vec = BackwardStpVector("max", summary_filter_factory=lambda: EwmaFilter(0.5))
        vec.update("a", 10.0)
        vec.update("b", 2.0)
        assert vec.compressed() == pytest.approx(10.0)


class TestThreadAruState:
    """A thread node's summary, as :meth:`SummaryStpPolicy.advertise`
    computes it."""

    def test_paper_fig3_thread_summary(self):
        """Node A (a thread) with consumers B-F and its own STP of 100 ms:
        min-compress gives 139; summary = max(139, 100) = 139."""
        state = thread_node("min")
        for conn, value in FIG3.items():
            state.on_feedback(conn, value)
        assert summary(state, current_stp=100.0) == 139.0

    def test_slow_thread_inserts_own_period(self):
        """A thread slower than its consumers inserts its own STP."""
        state = thread_node("min")
        for conn, value in FIG3.items():
            state.on_feedback(conn, value)
        assert summary(state, current_stp=200.0) == 200.0

    def test_fig4_max_aggressive(self):
        state = thread_node("max")
        for conn, value in FIG3.items():
            state.on_feedback(conn, value)
        assert summary(state, current_stp=100.0) == 544.0

    def test_no_feedback_yet_returns_own_stp(self):
        state = thread_node()
        assert summary(state, current_stp=80.0) == 80.0

    def test_no_own_stp_returns_compressed(self):
        state = thread_node()
        state.on_feedback("i", 42.0)
        assert summary(state, current_stp=None) == 42.0

    def test_nothing_known_returns_none(self):
        assert summary(thread_node(), current_stp=None) is None

    @given(
        st.dictionaries(st.integers(0, 5), st.floats(0.0, 1e3), min_size=1),
        st.floats(0.0, 1e3),
    )
    def test_summary_at_least_current_stp(self, backward, own):
        """Property: a thread never advertises a period shorter than its own."""
        state = thread_node("min")
        for conn, value in backward.items():
            state.on_feedback(conn, value)
        assert summary(state, own) >= own

    @given(
        st.dictionaries(st.integers(0, 5), st.floats(0.0, 1e3), min_size=1),
        st.floats(0.0, 1e3),
    )
    def test_max_dominates_min(self, backward, own):
        """Property: the max-operator summary >= the min-operator summary."""
        s_min = thread_node("min")
        s_max = thread_node("max")
        for conn, value in backward.items():
            s_min.on_feedback(conn, value)
            s_max.on_feedback(conn, value)
        assert summary(s_max, own) >= summary(s_min, own)


class TestBufferAruState:
    """A channel node's summary, as :class:`FeedbackEndpoint` advertises
    it."""

    def test_channel_summary_is_pure_compression(self):
        """Channels generate no current-STP (paper step 5)."""
        endpoint = FeedbackEndpoint(BackwardStpVector("min"))
        endpoint.receive("consumerA", 250.0)
        endpoint.receive("consumerB", 300.0)
        assert endpoint.advertise() == 250.0

    def test_channel_with_no_consumers_yet(self):
        assert FeedbackEndpoint(BackwardStpVector()).advertise() is None


class TestThrottleSleep:
    def test_tops_up_to_target(self):
        assert throttle_sleep(0.25, 0.1) == pytest.approx(0.15)

    def test_already_slower_sleeps_zero(self):
        assert throttle_sleep(0.25, 0.3) == 0.0

    def test_no_target_no_throttle(self):
        assert throttle_sleep(None, 0.1) == 0.0

    def test_headroom_scales_target(self):
        assert throttle_sleep(0.2, 0.1, headroom=1.5) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            throttle_sleep(0.1, -0.1)
        with pytest.raises(ValueError):
            throttle_sleep(-0.1, 0.1)

    @given(st.floats(0, 10), st.floats(0, 10))
    def test_sleep_plus_elapsed_reaches_target(self, target, elapsed):
        sleep = throttle_sleep(target, elapsed)
        assert sleep >= 0.0
        assert sleep + elapsed >= target - 1e-12


class TestStalenessEviction:
    """TTL-based slot eviction (fault tolerance, docs/fault-model.md)."""

    @staticmethod
    def clocked(ttl=1.0, op="min", **kwargs):
        t = [0.0]
        vec = BackwardStpVector(op, ttl=ttl, time_fn=lambda: t[0], **kwargs)
        return vec, t

    def test_ttl_requires_a_time_fn(self):
        with pytest.raises(ValueError, match="time_fn"):
            BackwardStpVector("min", ttl=1.0)

    def test_nonpositive_ttl_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            BackwardStpVector("min", ttl=0.0, time_fn=lambda: 0.0)

    def test_silent_slot_evicts_after_ttl(self):
        vec, t = self.clocked(ttl=1.0)
        vec.update("ghost", 50.0)
        vec.update("live", 100.0)
        t[0] = 0.9
        vec.update("live", 100.0)
        assert vec.compressed() == 50.0  # ghost still within its TTL
        t[0] = 1.5  # ghost last heard at 0.0 — stale; live heard at 0.9
        assert vec.compressed() == 100.0
        assert vec.evictions == 1

    def test_all_slots_stale_means_no_summary(self):
        vec, t = self.clocked(ttl=1.0)
        vec.update("a", 50.0)
        vec.update("b", 70.0)
        t[0] = 2.5
        assert vec.compressed() is None
        assert vec.evictions == 2

    def test_refresh_keeps_a_slot_alive_indefinitely(self):
        vec, t = self.clocked(ttl=1.0)
        for step in range(10):
            t[0] = step * 0.8
            vec.update("a", 42.0)
        assert vec.compressed() == 42.0
        assert vec.evictions == 0

    def test_eviction_drops_filter_state(self):
        vec, t = self.clocked(ttl=1.0,
                              summary_filter_factory=lambda: EwmaFilter(0.5))
        vec.update("a", 100.0)
        t[0] = 2.0
        assert vec.compressed() is None
        vec.update("a", 10.0)  # cold filter: no memory of the 100
        assert vec.compressed() == pytest.approx(10.0)

    def test_explicit_evict_reports_existence(self):
        vec, _ = self.clocked()
        vec.update("a", 5.0)
        assert vec.evict("a") is True
        assert vec.evict("a") is False
        assert vec.compressed() is None

    def test_no_ttl_never_evicts(self):
        vec = BackwardStpVector("min")
        vec.update("a", 5.0)
        assert vec.evict_stale() == []
        assert vec.compressed() == 5.0

    def test_thread_state_passes_ttl_through(self):
        t = [0.0]
        state = thread_node("min", ttl=1.0, time_fn=lambda: t[0])
        state.on_feedback("dead", 500.0)
        t[0] = 2.0
        assert summary(state, current_stp=100.0) == 100.0
