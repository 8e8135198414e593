"""Actuation layer: throttle_sleep math and the Actuator classes."""

import pytest

from repro.control import NullActuator, SleepThrottle, throttle_sleep
from repro.control.signals import Signals


def _signals(elapsed: float) -> Signals:
    return Signals(now=0.0, current_stp=None, raw_stp=None,
                   iteration_elapsed=elapsed)


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
        with pytest.raises(ValueError):
            throttle_sleep(1.0, 0.0, headroom=0.0)


class TestSleepThrottle:
    def test_plan_uses_iteration_elapsed(self):
        assert SleepThrottle().plan(1.0, _signals(0.25)) == pytest.approx(0.75)

    def test_plan_without_target(self):
        assert SleepThrottle().plan(None, _signals(0.25)) == 0.0

    def test_headroom_applied(self):
        actuator = SleepThrottle(headroom=0.5)
        assert actuator.plan(1.0, _signals(0.0)) == pytest.approx(0.5)

    def test_bad_headroom_rejected(self):
        with pytest.raises(ValueError):
            SleepThrottle(headroom=-1.0)


class TestNullActuator:
    def test_never_sleeps(self):
        assert NullActuator().plan(5.0, _signals(0.0)) == 0.0
