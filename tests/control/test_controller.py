"""ThreadController orchestration, the factory, and sensors."""

import warnings

import pytest

from repro.aru import aru_disabled, aru_max, aru_min, aru_null, aru_pid
from repro.aru.filters import NoFilter
from repro.aru.stp import StpMeter
from repro.control import (
    NullPolicy,
    PidPolicy,
    SleepThrottle,
    StpSensor,
    SummaryStpPolicy,
    ThreadController,
    build_policy,
    build_thread_controller,
)
from repro.control.sensor import PipelineSensor
from repro.control.signals import Signals


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self) -> float:
        return self.t


def make_meter(clock=None) -> StpMeter:
    return StpMeter(clock or FakeClock(), stp_filter=NoFilter())


class RecordingPolicy(NullPolicy):
    """Counts calls so controller short-circuits can be asserted."""

    def __init__(self):
        self.observed = 0
        self.fed = []

    def observe(self, signals):
        self.observed += 1
        return None

    def on_feedback(self, conn_id, value):
        self.fed.append((conn_id, value))


class TestThreadController:
    def make(self, policy, throttled=True, clock=None) -> ThreadController:
        clock = clock or FakeClock()
        return ThreadController(
            sensor=StpSensor(make_meter(clock), clock.now),
            policy=policy,
            actuator=SleepThrottle(),
            throttled=throttled,
        )

    def test_meter_property_is_sensor_meter(self):
        controller = self.make(NullPolicy())
        assert controller.meter is controller.sensor.meter

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
        controller = self.make(build_policy(aru_min(), "t"))
        controller.policy.on_feedback("c", 2.0)
        target, sleep_t = controller.plan_throttle()
        assert target == pytest.approx(2.0)
        assert sleep_t == pytest.approx(2.0)  # nothing elapsed yet

    def test_reset_delegates_to_policy(self):
        controller = self.make(build_policy(aru_min(), "t"))
        controller.policy.on_feedback("c", 2.0)
        controller.reset()
        assert controller.policy.snapshot() == {}


class TestBuildPolicy:
    def test_disabled_gives_null(self):
        assert isinstance(build_policy(aru_disabled(), "t"), NullPolicy)

    def test_null_kind_gives_null(self):
        assert isinstance(build_policy(aru_null(), "t"), NullPolicy)

    def test_summary_stp_default(self):
        policy = build_policy(aru_min(), "t")
        assert isinstance(policy, SummaryStpPolicy)
        assert not isinstance(policy, PidPolicy)

    def test_pid_carries_config_gains(self):
        policy = build_policy(aru_pid(pid_kp=0.7, pid_ki=0.1), "t")
        assert isinstance(policy, PidPolicy)
        assert policy.kp == 0.7
        assert policy.ki == 0.1

    def test_compress_op_override(self):
        policy = build_policy(aru_min(), "t", compress_op="max")
        policy.on_feedback("a", 0.2)
        policy.on_feedback("b", 0.9)
        sig = Signals(now=0.0, current_stp=None, raw_stp=None,
                      iteration_elapsed=0.0)
        assert policy.observe(sig) == pytest.approx(0.9)


class TestBuildThreadController:
    def build(self, cfg, is_source=True) -> ThreadController:
        clock = FakeClock()
        return build_thread_controller(cfg, "t", make_meter(clock), clock.now,
                                       is_source)

    def test_sources_only_throttling(self):
        assert self.build(aru_min(), is_source=True).throttled is True
        assert self.build(aru_min(), is_source=False).throttled is False
        everyone = aru_min(throttle_sources_only=False)
        assert self.build(everyone, is_source=False).throttled is True

    def test_disabled_never_throttles(self):
        assert self.build(aru_disabled(), is_source=True).throttled is False
        assert self.build(aru_null(), is_source=True).throttled is False

    def test_headroom_lands_on_actuator(self):
        controller = self.build(aru_min(headroom=1.2))
        assert isinstance(controller.actuator, SleepThrottle)
        assert controller.actuator.headroom == pytest.approx(1.2)


class SpySensor(StpSensor):
    """Counts reads."""

    reads = 0

    def read(self):
        self.reads += 1
        return super().read()


class TestSilentWhenItDecidesNothing:
    """``RatePolicy.propagates`` is a contract the controller acts on: a
    policy that transports nothing advertises nothing, so its stack does
    no measurement work per get or per sync."""

    def spied(self, cfg) -> ThreadController:
        clock = FakeClock()
        controller = build_thread_controller(
            cfg, "t", make_meter(clock), clock.now, is_source=True)
        controller.sensor = SpySensor(controller.meter, clock.now)
        return controller

    @pytest.mark.parametrize("cfg", [aru_disabled(), aru_null()],
                             ids=["disabled", "null"])
    def test_null_stack_never_reads_its_sensor(self, cfg):
        controller = self.spied(cfg)
        for _ in range(3):
            assert controller.outbound_summary() is None
            assert controller.plan_throttle() == (None, 0.0)
        assert controller.sensor.reads == 0

    def test_propagating_stack_reads_once_per_call(self):
        controller = self.spied(aru_min())
        controller.outbound_summary()
        assert controller.sensor.reads == 1
        controller.plan_throttle()
        assert controller.sensor.reads == 2

    def test_a_silent_policy_is_not_asked_to_advertise(self):
        class Loud(NullPolicy):
            def advertise(self, signals):
                raise AssertionError("advertise() on a non-propagating policy")

        clock = FakeClock()
        controller = ThreadController(
            sensor=SpySensor(make_meter(clock), clock.now), policy=Loud(),
            actuator=SleepThrottle(), throttled=False)
        assert controller.outbound_summary() is None


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
        assert sig.queue_depth is None

    def test_pipeline_sensor_sums_depth_and_drops(self):
        class Buf(list):
            pass

        class Conn:
            def __init__(self, skips):
                self.skips = skips

        clock = FakeClock()
        in_conns = {
            "a": (Buf([1, 2]), Conn(skips=3)),
            "b": (Buf([1]), Conn(skips=4)),
        }
        sig = PipelineSensor(make_meter(clock), clock.now, in_conns).read()
        assert sig.queue_depth == 3
        assert sig.drops == 7


class TestHeadroomKwargRemoved:
    def test_driver_kwarg_now_raises(self):
        """The deprecated ``headroom`` kwarg completed its cycle: passing
        it is a TypeError; AruConfig.headroom is the only spelling."""
        from repro.apps import build_tracker
        from repro.runtime import Runtime, RuntimeConfig
        from repro.runtime.thread import ThreadDriver

        rt = Runtime(build_tracker(), RuntimeConfig(aru=aru_max()))
        old = rt.drivers["digitizer"]
        controller = build_thread_controller(
            aru_max(), "digitizer", make_meter(rt.clock), rt.clock.now, True)
        with pytest.raises(TypeError, match="headroom"):
            ThreadDriver(
                runtime=rt, name="extra", fn=old.fn, node=old.node,
                in_conns={}, out_conns={}, ctx=old.ctx,
                controller=controller, headroom=0.9)

    def test_config_headroom_still_lands_on_actuator(self):
        from repro.apps import build_tracker
        from repro.runtime import Runtime, RuntimeConfig

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rt = Runtime(build_tracker(),
                         RuntimeConfig(aru=aru_max(headroom=1.3)))
        actuator = rt.drivers["digitizer"].controller.actuator
        assert actuator.headroom == pytest.approx(1.3)
