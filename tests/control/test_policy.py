"""Decision layer: ARU off, and the SummaryStp / Pid policies against
hand-built vectors and signal snapshots."""

import pytest

from repro.aru import aru_disabled
from repro.aru.summary import BackwardStpVector
from repro.control import (
    NULL_CONTROLLER,
    FeedbackBus,
    PidPolicy,
    SummaryStpPolicy,
)
from repro.control.signals import Signals


def _signals(current_stp=None) -> Signals:
    return Signals(now=0.0, current_stp=current_stp, raw_stp=current_stp,
                   iteration_elapsed=0.0)


class TestNullPolicy:
    """ARU off: no buffer endpoint and the policy-less null controller."""

    def test_does_not_propagate(self):
        assert FeedbackBus(aru_disabled()).endpoint() is None
        assert NULL_CONTROLLER.policy is None

    def test_decisions_are_none(self):
        assert NULL_CONTROLLER.outbound_summary() is None
        assert NULL_CONTROLLER.plan_throttle() == (None, 0.0)


class TestSummaryStpPolicy:
    def test_observe_is_compressed_backward(self):
        policy = SummaryStpPolicy(BackwardStpVector("min"))
        assert policy.observe(_signals()) is None
        policy.on_feedback("c1", 0.4)
        policy.on_feedback("c2", 0.9)
        assert policy.observe(_signals()) == pytest.approx(0.4)

    def test_advertise_inserts_own_period(self):
        policy = SummaryStpPolicy(BackwardStpVector("min"))
        policy.on_feedback("c1", 0.4)
        # slower than every consumer: my own period dominates
        assert policy.advertise(_signals(current_stp=0.7)) == pytest.approx(0.7)
        assert policy.advertise(_signals(current_stp=0.2)) == pytest.approx(0.4)

    def test_reset_clears_backward_state(self):
        policy = SummaryStpPolicy(BackwardStpVector("min"))
        policy.on_feedback("c1", 0.4)
        policy.reset()
        assert policy.observe(_signals()) is None
        assert policy.snapshot() == {}

    def test_snapshot_exposes_slots(self):
        policy = SummaryStpPolicy(BackwardStpVector("min"))
        policy.on_feedback("c1", 0.4)
        assert policy.snapshot() == {"c1": pytest.approx(0.4)}


class TestPidPolicy:
    def make(self, kp=0.5, ki=0.25) -> PidPolicy:
        return PidPolicy(BackwardStpVector("min"), kp=kp, ki=ki)

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            self.make(kp=-1.0)
        with pytest.raises(ValueError):
            self.make(kp=0.0, ki=0.0)

    def test_cold_start_jumps_to_measurement(self):
        policy = self.make()
        assert policy.observe(_signals()) is None  # nothing heard yet
        policy.on_feedback("c", 1.0)
        assert policy.observe(_signals()) == pytest.approx(1.0)

    def test_velocity_form_update(self):
        policy = self.make(kp=0.5, ki=0.25)
        policy.on_feedback("c", 1.0)
        policy.observe(_signals())  # u_0 = 1.0
        policy.on_feedback("c", 2.0)
        # e_1 = 1.0; u_1 = 1.0 + 0.5*(1.0 - 0.0) + 0.25*1.0 = 1.75
        assert policy.observe(_signals()) == pytest.approx(1.75)
        # e_2 = 0.25; u_2 = 1.75 + 0.5*(0.25 - 1.0) + 0.25*0.25 = 1.4375
        assert policy.observe(_signals()) == pytest.approx(1.4375)

    def test_converges_to_constant_measurement(self):
        policy = self.make()
        policy.on_feedback("c", 1.0)
        policy.observe(_signals())
        policy.on_feedback("c", 2.0)
        target = None
        for _ in range(60):
            target = policy.observe(_signals())
        assert target == pytest.approx(2.0, rel=1e-3)

    def test_target_never_negative(self):
        policy = self.make(kp=5.0, ki=5.0)
        policy.on_feedback("c", 10.0)
        policy.observe(_signals())
        policy.backward.update("c", 0.001)
        for _ in range(10):
            assert policy.observe(_signals()) >= 0.0

    def test_feedback_loss_unthrottles_and_resets(self):
        policy = self.make()
        policy.on_feedback("c", 1.0)
        policy.observe(_signals())
        policy.backward.evict("c")
        assert policy.observe(_signals()) is None
        # next measurement cold-starts again
        policy.on_feedback("c", 3.0)
        assert policy.observe(_signals()) == pytest.approx(3.0)

    def test_reset_clears_controller_state(self):
        policy = self.make()
        policy.on_feedback("c", 1.0)
        policy.observe(_signals())
        policy.reset()
        assert policy._target is None
        assert policy.observe(_signals()) is None

    def test_propagation_inherited_from_summary_stp(self):
        policy = self.make()
        policy.on_feedback("c", 0.4)
        assert policy.advertise(_signals(current_stp=0.7)) == pytest.approx(0.7)
