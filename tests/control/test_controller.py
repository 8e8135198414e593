"""ThreadController orchestration, its assembly by the driver, and the
STP sensor."""

import warnings

import pytest

from repro.apps import build_tracker
from repro.aru import BackwardStpVector, aru_disabled, aru_max, aru_min, aru_pid
from repro.aru.filters import NoFilter
from repro.aru.stp import StpMeter
from repro.control import (
    NULL_CONTROLLER,
    PidPolicy,
    StpSensor,
    SummaryStpPolicy,
    ThreadController,
)
from repro.control.policy import PID_KI, PID_KP
from repro.control.signals import Signals
from repro.runtime import Runtime, RuntimeConfig


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self) -> float:
        return self.t


def make_meter(clock=None) -> StpMeter:
    return StpMeter(clock or FakeClock(), stp_filter=NoFilter())


class RecordingPolicy(SummaryStpPolicy):
    """Counts calls so controller short-circuits can be asserted."""

    def __init__(self):
        super().__init__(BackwardStpVector("min"))
        self.observed = 0
        self.fed = []

    def observe(self, signals):
        self.observed += 1
        return None

    def on_feedback(self, conn_id, value):
        self.fed.append((conn_id, value))


def tracker_drivers(aru):
    return Runtime(build_tracker(), RuntimeConfig(aru=aru)).drivers


class TestThreadController:
    def make(self, policy, throttled=True, clock=None) -> ThreadController:
        clock = clock or FakeClock()
        return ThreadController(StpSensor(make_meter(clock), clock.now),
                                policy, throttled=throttled)

    def test_meter_property_is_sensor_meter(self):
        """The driver is handed the meter its controller's sensor reads."""
        driver = tracker_drivers(aru_min())["digitizer"]
        assert driver.controller.sensor.meter is driver.meter

    def test_unthrottled_skips_policy_entirely(self):
        policy = RecordingPolicy()
        controller = self.make(policy, throttled=False)
        assert controller.plan_throttle() == (None, 0.0)
        assert policy.observed == 0

    def test_throttled_consults_policy(self):
        policy = RecordingPolicy()
        controller = self.make(policy, throttled=True)
        assert controller.plan_throttle() == (None, 0.0)
        assert policy.observed == 1

    def test_none_feedback_is_dropped(self):
        policy = RecordingPolicy()
        controller = self.make(policy)
        controller.on_feedback("c", None)
        controller.on_feedback("c", 0.5)
        assert policy.fed == [("c", 0.5)]

    def test_plan_throttle_returns_target_and_sleep(self):
        controller = self.make(SummaryStpPolicy(BackwardStpVector("min")))
        controller.on_feedback("c", 2.0)
        target, sleep_t = controller.plan_throttle()
        assert target == pytest.approx(2.0)
        assert sleep_t == pytest.approx(2.0)  # nothing elapsed yet

    def test_reset_delegates_to_policy(self):
        controller = self.make(SummaryStpPolicy(BackwardStpVector("min")))
        controller.on_feedback("c", 2.0)
        controller.policy.reset()
        assert controller.policy.snapshot() == {}
        assert controller.plan_throttle() == (None, 0.0)


class TestBuildPolicy:
    """The policy each thread driver assembles from its AruConfig."""

    def test_disabled_gives_null(self):
        drivers = tracker_drivers(aru_disabled())
        assert all(d.controller is NULL_CONTROLLER for d in drivers.values())
        assert NULL_CONTROLLER.policy is None

    def test_summary_stp_default(self):
        policy = tracker_drivers(aru_min())["digitizer"].controller.policy
        assert isinstance(policy, SummaryStpPolicy)
        assert not isinstance(policy, PidPolicy)

    def test_pid_carries_config_gains(self):
        policy = tracker_drivers(aru_pid())["digitizer"].controller.policy
        assert isinstance(policy, PidPolicy)
        assert (policy.kp, policy.ki) == (PID_KP, PID_KI)

    def test_compress_op_override(self):
        graph = build_tracker()
        graph.attrs("digitizer")["compress_op"] = "max"
        runtime = Runtime(graph, RuntimeConfig(aru=aru_min()))
        policy = runtime.drivers["digitizer"].controller.policy
        policy.on_feedback("a", 0.2)
        policy.on_feedback("b", 0.9)
        sig = Signals(now=0.0, current_stp=None, raw_stp=None,
                      iteration_elapsed=0.0)
        assert policy.observe(sig) == pytest.approx(0.9)


class TestBuildThreadController:
    def test_sources_only_throttling(self):
        drivers = tracker_drivers(aru_min())
        assert drivers["digitizer"].controller.throttled is True
        assert drivers["gui"].controller.throttled is False

    def test_disabled_never_throttles(self):
        drivers = tracker_drivers(aru_disabled())
        assert drivers["digitizer"].controller.throttled is False

    def test_headroom_lands_on_actuator(self):
        drivers = tracker_drivers(aru_min(headroom=1.2))
        assert drivers["digitizer"].controller.headroom == pytest.approx(1.2)


class SpySensor(StpSensor):
    """Counts reads."""

    reads = 0

    def read(self):
        self.reads += 1
        return super().read()


class TestSilentWhenItDecidesNothing:
    """ARU off is :data:`NULL_CONTROLLER`: no policy, so no measurement
    work per get or per sync."""

    def test_null_stack_never_reads_its_sensor(self):
        for _ in range(3):
            assert NULL_CONTROLLER.outbound_summary() is None
            assert NULL_CONTROLLER.plan_throttle() == (None, 0.0)
            NULL_CONTROLLER.on_feedback("c", None)
        assert NULL_CONTROLLER.sensor is None

    def test_propagating_stack_reads_once_per_call(self):
        clock = FakeClock()
        controller = ThreadController(
            SpySensor(make_meter(clock), clock.now),
            SummaryStpPolicy(BackwardStpVector("min")), throttled=True)
        controller.outbound_summary()
        assert controller.sensor.reads == 1
        controller.plan_throttle()
        assert controller.sensor.reads == 2


class TestSensors:
    def test_stp_sensor_snapshot(self):
        clock = FakeClock()
        meter = make_meter(clock)
        sensor = StpSensor(meter, clock.now)
        clock.t = 3.0
        sig = sensor.read()
        assert sig.now == 3.0
        assert sig.current_stp is None
        assert sig.iterations == 0
        assert sig.iteration_elapsed == 3.0


class TestHeadroomKwargRemoved:
    def test_driver_kwarg_now_raises(self):
        """``AruConfig.headroom`` is the only spelling: a driver
        ``headroom`` kwarg is a TypeError."""
        from repro.runtime.thread import ThreadDriver

        rt = Runtime(build_tracker(), RuntimeConfig(aru=aru_max()))
        old = rt.drivers["digitizer"]
        with pytest.raises(TypeError, match="headroom"):
            ThreadDriver(
                runtime=rt, name="extra", fn=old.fn, node=old.node,
                in_conns={}, out_conns={}, ctx=old.ctx, meter=old.meter,
                controller=old.controller, headroom=0.9)

    def test_config_headroom_still_lands_on_actuator(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rt = Runtime(build_tracker(),
                         RuntimeConfig(aru=aru_max(headroom=1.3)))
        controller = rt.drivers["digitizer"].controller
        assert controller.headroom == pytest.approx(1.3)
