"""Rate policies: the decision layer of the control plane.

A :class:`RatePolicy` owns the feedback *state* of one thread and makes
two kinds of decisions from sensor :class:`~repro.control.signals.Signals`:

* :meth:`~RatePolicy.observe` — the target period the actuator should
  enforce this iteration (``None`` = no throttling);
* :meth:`~RatePolicy.advertise` — the summary value to piggyback
  upstream on this thread's next get (``None`` = nothing known yet).

Feedback received from downstream (piggybacked on puts) arrives through
:meth:`~RatePolicy.on_feedback`. Policies whose class attribute
``propagates`` is False opt the whole pipeline out of feedback
transport — no buffer-side state is built and no values ride on put/get,
which is how :class:`NullPolicy` reproduces the "No ARU" baseline
bit-for-bit.

Three policies ship:

* :class:`SummaryStpPolicy` — the paper's mechanism (§3.3.2): min/max
  compression of the backwardSTP vector, target = compressed summary;
* :class:`PidPolicy` — a velocity-form proportional-integral controller
  (after Xia et al., *Feedback Scheduling: An Event-Driven Paradigm*)
  that smooths the same measurement into the target instead of applying
  it raw;
* :class:`NullPolicy` — the No-ARU baseline.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.aru.summary import ThreadAruState
from repro.control.signals import Signals


class RatePolicy:
    """Decision interface of the control plane (see module docstring)."""

    #: Whether this policy participates in feedback transport. False
    #: disables the piggyback bus entirely (no buffer-side state, no
    #: values on put/get) — the No-ARU baseline. A policy that transports
    #: nothing advertises nothing: the controller answers ``None`` for it
    #: without calling :meth:`advertise` or reading the sensor.
    propagates: bool = True
    #: Short human-readable kind tag (diagnostics and reports).
    kind: str = "rate-policy"

    def on_feedback(self, conn_id: object, value: float) -> None:
        """A downstream summary value arrived for output ``conn_id``."""

    def observe(self, signals: Signals) -> Optional[float]:
        """The target period to actuate this iteration (None = none)."""
        raise NotImplementedError

    def advertise(self, signals: Signals) -> Optional[float]:
        """The summary value to propagate upstream (None = unknown)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Drop all feedback state (cold restart of the owning thread)."""

    def snapshot(self) -> Dict[object, float]:
        """Copy of the per-connection feedback state (diagnostics)."""
        return {}


class NullPolicy(RatePolicy):
    """The paper's "No ARU" baseline: no feedback, no throttling."""

    propagates = False
    kind = "null"

    def observe(self, signals: Signals) -> Optional[float]:
        return None

    def advertise(self, signals: Signals) -> Optional[float]:
        return None


class SummaryStpPolicy(RatePolicy):
    """The paper's ARU policy on top of a backwardSTP vector (§3.3.2).

    * feedback values land in the per-output-connection vector;
    * the advertised summary is ``max(compressed backward, current-STP)``
      — a thread slower than its consumers inserts its own period;
    * the observed target is the compressed backward vector verbatim.
    """

    kind = "summary-stp"

    def __init__(self, state: ThreadAruState) -> None:
        self.state = state

    def on_feedback(self, conn_id: object, value: float) -> None:
        self.state.update_backward(conn_id, value)

    def observe(self, signals: Signals) -> Optional[float]:
        return self.state.backward.compressed()

    def advertise(self, signals: Signals) -> Optional[float]:
        return self.state.summary(signals.current_stp)

    def reset(self) -> None:
        self.state.backward.clear()

    def snapshot(self) -> Dict[object, float]:
        return self.state.backward.snapshot()


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

    kind = "pid"

    def __init__(self, state: ThreadAruState, kp: float = 0.5,
                 ki: float = 0.25) -> None:
        super().__init__(state)
        if kp < 0 or ki < 0:
            raise ValueError(f"PID gains must be >= 0, got kp={kp} ki={ki}")
        if kp == 0 and ki == 0:
            raise ValueError("PID needs at least one non-zero gain")
        self.kp = kp
        self.ki = ki
        self._target: Optional[float] = None
        self._prev_error = 0.0

    def observe(self, signals: Signals) -> Optional[float]:
        measured = self.state.backward.compressed()
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
