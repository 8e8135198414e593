"""Propagation layer: FeedbackEndpoint and FeedbackBus."""

import pytest

from repro.aru import aru_disabled, aru_max, aru_min
from repro.aru.summary import BackwardStpVector
from repro.control import FeedbackBus, FeedbackEndpoint


class TestFeedbackEndpoint:
    def test_receive_then_advertise(self):
        ep = FeedbackEndpoint(BackwardStpVector("min"))
        assert ep.advertise() is None
        ep.receive("c1", 0.5)
        ep.receive("c2", 0.8)
        assert ep.advertise() == pytest.approx(0.5)

    def test_detach_drops_slot(self):
        ep = FeedbackEndpoint(BackwardStpVector("min"))
        ep.receive("c1", 0.5)
        assert ep.detach("c1") is True
        assert ep.advertise() is None
        assert ep.detach("c1") is False

    def test_backward_property(self):
        backward = BackwardStpVector("min")
        assert FeedbackEndpoint(backward).backward is backward


class TestFeedbackBus:
    def test_propagates_only_when_enabled_and_not_null(self):
        assert isinstance(FeedbackBus(aru_min()).endpoint(), FeedbackEndpoint)
        assert isinstance(FeedbackBus(aru_max()).endpoint(), FeedbackEndpoint)
        assert FeedbackBus(aru_disabled()).endpoint() is None

    def test_no_endpoints_when_not_propagating(self):
        bus = FeedbackBus(aru_disabled())
        assert bus.endpoint() is None
        assert bus.endpoint(compress_op="max") is None

    def test_endpoint_uses_config_channel_op(self):
        ep = FeedbackBus(aru_max()).endpoint()
        ep.receive("c1", 0.5)
        ep.receive("c2", 0.8)
        assert ep.advertise() == pytest.approx(0.8)

    def test_compress_op_override_beats_config(self):
        ep = FeedbackBus(aru_max()).endpoint(compress_op="min")
        ep.receive("c1", 0.5)
        ep.receive("c2", 0.8)
        assert ep.advertise() == pytest.approx(0.5)

    def test_staleness_ttl_wired_through(self):
        clock = [0.0]
        bus = FeedbackBus(aru_min(staleness_ttl=1.0), time_fn=lambda: clock[0])
        ep = bus.endpoint()
        ep.receive("c1", 0.5)
        clock[0] = 5.0
        assert ep.advertise() is None  # slot evicted as stale
