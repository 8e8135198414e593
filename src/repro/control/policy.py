"""Rate policies: the decision half of a thread's feedback loop.

A policy owns one thread's backwardSTP vector (one slot per output
connection) and makes two decisions from sensor
:class:`~repro.control.signals.Signals`:

* ``observe`` — the target period the source sleep enforces this
  iteration (``None`` = no throttling);
* ``advertise`` — the summary value to piggyback upstream on this
  thread's next get (``None`` = nothing known yet).

Feedback received from downstream (piggybacked on puts) arrives through
``on_feedback``. Two policies ship, selected by
:attr:`AruConfig.policy <repro.aru.config.AruConfig.policy>`:

* :class:`SummaryStpPolicy` — the paper's mechanism (§3.3.2): min/max
  compression of the backwardSTP vector, target = compressed summary;
* :class:`PidPolicy` — a velocity-form proportional-integral controller
  (after Xia et al., *Feedback Scheduling: An Event-Driven Paradigm*)
  that smooths the same measurement into the target instead of applying
  it raw.

ARU off is no policy at all: see
:data:`~repro.control.controller.NULL_CONTROLLER`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.aru.summary import BackwardStpVector
from repro.control.signals import Signals

#: Gains of :class:`PidPolicy` (velocity-form PI).
PID_KP = 0.5
PID_KI = 0.25


class SummaryStpPolicy:
    """The paper's ARU policy on top of a backwardSTP vector (§3.3.2).

    * feedback values land in the per-output-connection vector;
    * the advertised summary is ``max(compressed backward, current-STP)``
      — *"this allows a thread with a larger period than its consumers
      to insert its execution period into the summary-STP"*;
    * the observed target is the compressed backward vector verbatim.
    """

    def __init__(self, backward: BackwardStpVector) -> None:
        self.backward = backward

    def on_feedback(self, conn_id: object, value: float) -> None:
        """A downstream summary value arrived for output ``conn_id``."""
        self.backward.update(conn_id, value)

    def observe(self, signals: Signals) -> Optional[float]:
        """The target period to actuate this iteration (None = none)."""
        return self.backward.compressed()

    def advertise(self, signals: Signals) -> Optional[float]:
        """``max(compressed backward, current-STP)``; only one side known
        -> that side; neither -> ``None``."""
        compressed = self.backward.compressed()
        current_stp = signals.current_stp
        if compressed is None:
            return current_stp
        if current_stp is None:
            return compressed
        return max(compressed, current_stp)

    def reset(self) -> None:
        """Drop all feedback state (cold restart of the owning thread)."""
        self.backward.clear()

    def snapshot(self) -> Dict[object, float]:
        """Copy of the per-connection feedback state (diagnostics)."""
        return self.backward.snapshot()


class PidPolicy(SummaryStpPolicy):
    """Velocity-form PI controller over the summary-STP measurement.

    The compressed backward summary is treated as the *measured*
    sustainable period; instead of actuating it raw (which inherits all
    measurement noise, §3.3.2's noise discussion), the target is driven
    towards it incrementally:

    .. math::

        e_k = \\text{measured}_k - u_{k-1} \\qquad
        u_k = u_{k-1} + k_p (e_k - e_{k-1}) + k_i e_k

    At equilibrium ``e = 0`` and the target equals the measured
    sustainable period — same fixed point as the paper's policy, but the
    approach is first-order smooth, trading settling time for far less
    target jitter. Cold start jumps straight to the first measurement
    (an integrator wind-up from zero would over-throttle the pipeline
    for many iterations).

    Upstream propagation is inherited unchanged from
    :class:`SummaryStpPolicy`: mid-pipeline threads still advertise
    ``max(compressed, current-STP)``; only the actuated target differs.
    """

    def __init__(self, backward: BackwardStpVector, kp: float = PID_KP,
                 ki: float = PID_KI) -> None:
        super().__init__(backward)
        if kp < 0 or ki < 0:
            raise ValueError(f"PID gains must be >= 0, got kp={kp} ki={ki}")
        if kp == 0 and ki == 0:
            raise ValueError("PID needs at least one non-zero gain")
        self.kp = kp
        self.ki = ki
        self._target: Optional[float] = None
        self._prev_error = 0.0

    def observe(self, signals: Signals) -> Optional[float]:
        measured = self.backward.compressed()
        if measured is None:
            # All feedback evicted (staleness TTL after a consumer died):
            # un-throttle and restart the loop cold, like the base policy.
            self._target = None
            self._prev_error = 0.0
            return None
        if self._target is None:
            self._target = measured
            self._prev_error = 0.0
            return self._target
        error = measured - self._target
        self._target = max(
            0.0,
            self._target + self.kp * (error - self._prev_error)
            + self.ki * error,
        )
        self._prev_error = error
        return self._target

    def reset(self) -> None:
        super().reset()
        self._target = None
        self._prev_error = 0.0
