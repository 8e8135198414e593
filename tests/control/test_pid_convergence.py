"""PidPolicy on the real pipeline: convergence and cold-restart reset.

The acceptance bar (mirrored by ``benchmarks/bench_abl_pid.py`` at full
length): the PI controller's steady-state period must land within 10%
of the sustainable period the paper's summary-STP policy measures on
the same cell.
"""

import pytest

from repro.apps import build_tracker
from repro.aru import aru_min, aru_pid
from repro.control import PidPolicy
from repro.metrics import control_series, steady_state
from repro.runtime import Runtime, RuntimeConfig

HORIZON = 40.0
WARMUP = 15.0  # ignore the transient; compare steady-state levels


def _digitizer_steady_state(aru) -> float:
    runtime = Runtime(build_tracker(), RuntimeConfig(aru=aru, seed=0))
    recorder = runtime.run(until=HORIZON)
    return steady_state(control_series(recorder, "digitizer"), after=WARMUP)


class TestPidConvergence:
    def test_steady_state_within_10pct_of_sustainable_period(self):
        sustainable = _digitizer_steady_state(aru_min())
        pid_level = _digitizer_steady_state(aru_pid())
        assert sustainable > 0
        assert pid_level == pytest.approx(sustainable, rel=0.10)

    def test_pid_actually_throttles(self):
        runtime = Runtime(build_tracker(), RuntimeConfig(aru=aru_pid(), seed=0))
        recorder = runtime.run(until=HORIZON)
        series = control_series(recorder, "digitizer")
        assert (series.slept > 0).any()


class TestRestartResetsPolicyState:
    def test_cold_restart_builds_fresh_pid_state(self):
        runtime = Runtime(build_tracker(), RuntimeConfig(aru=aru_pid(), seed=0))
        runtime.advance(10.0)
        policy = runtime.drivers["digitizer"].controller.policy
        assert isinstance(policy, PidPolicy)
        assert policy._target is not None  # loop engaged

        runtime.restart_thread("digitizer")
        fresh = runtime.drivers["digitizer"].controller.policy
        assert fresh is not policy
        assert isinstance(fresh, PidPolicy)
        assert fresh._target is None  # cold: no integrated target
        assert fresh.snapshot() == {}  # no backward slots

        # and the pipeline keeps running after the restart
        runtime.advance(5.0)
        runtime.finalize()

    def test_controller_reset_clears_decision_state(self):
        runtime = Runtime(build_tracker(), RuntimeConfig(aru=aru_pid(), seed=0))
        runtime.advance(10.0)
        controller = runtime.drivers["digitizer"].controller
        assert controller.policy.snapshot() != {}
        controller.policy.reset()
        assert controller.policy.snapshot() == {}
        assert controller.policy._target is None
