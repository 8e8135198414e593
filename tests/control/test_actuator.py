"""Actuation: throttle_sleep math and the controller's source sleep."""

import pytest

from repro.aru import AruConfig, BackwardStpVector
from repro.aru.filters import NoFilter
from repro.aru.stp import StpMeter
from repro.control import (
    NULL_CONTROLLER,
    StpSensor,
    SummaryStpPolicy,
    ThreadController,
    throttle_sleep,
)
from repro.errors import ConfigError


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self) -> float:
        return self.t


def throttled_source(headroom: float = 1.0, target=None, elapsed=0.0):
    """A source's controller whose backward vector holds ``target`` and
    whose open iteration has run ``elapsed`` seconds."""
    clock = FakeClock()
    meter = StpMeter(clock, stp_filter=NoFilter())
    policy = SummaryStpPolicy(BackwardStpVector("min"))
    if target is not None:
        policy.on_feedback("out", target)
    clock.t = elapsed
    return ThreadController(StpSensor(meter, clock.now), policy,
                            throttled=True, headroom=headroom)


class TestThrottleSleep:
    def test_no_target_no_sleep(self):
        assert throttle_sleep(None, 0.5) == 0.0

    def test_tops_up_to_target(self):
        assert throttle_sleep(1.0, 0.3) == pytest.approx(0.7)

    def test_already_slower_than_target(self):
        assert throttle_sleep(1.0, 1.4) == 0.0

    def test_headroom_scales_target(self):
        assert throttle_sleep(1.0, 0.0, headroom=1.25) == pytest.approx(1.25)

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            throttle_sleep(1.0, -0.1)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            throttle_sleep(-1.0, 0.0)

    def test_bad_headroom_rejected(self):
        """Headroom is validated once, where it is configured."""
        with pytest.raises(ConfigError, match="headroom"):
            AruConfig(headroom=0.0)


class TestSleepThrottle:
    """The paper's actuator: a source sleeps at ``periodicity_sync()``."""

    def test_plan_uses_iteration_elapsed(self):
        controller = throttled_source(target=1.0, elapsed=0.25)
        assert controller.plan_throttle() == (1.0, pytest.approx(0.75))

    def test_plan_without_target(self):
        assert throttled_source(elapsed=0.25).plan_throttle() == (None, 0.0)

    def test_headroom_applied(self):
        controller = throttled_source(headroom=0.5, target=1.0)
        assert controller.plan_throttle() == (1.0, pytest.approx(0.5))

    def test_bad_headroom_rejected(self):
        with pytest.raises(ConfigError, match="headroom"):
            AruConfig(headroom=-1.0)


class TestNullActuator:
    def test_never_sleeps(self):
        """ARU off: the shared null controller plans no sleep."""
        assert NULL_CONTROLLER.plan_throttle() == (None, 0.0)
        assert NULL_CONTROLLER.throttled is False
