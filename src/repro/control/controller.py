"""The per-thread controller: the paper's rate loop for one thread.

:class:`ThreadController` is what a thread driver holds instead of raw
ARU state. The driver keeps its three obligations — piggyback an
outbound summary on gets, deliver put feedback, and throttle at
``periodicity_sync()`` — and each is one call into the controller:

* :meth:`~ThreadController.outbound_summary` — sensor read → policy
  ``advertise``; the value piggybacked upstream on a get;
* :meth:`~ThreadController.on_feedback` — the value a put returned,
  delivered to the policy;
* :meth:`~ThreadController.plan_throttle` — sensor read → policy
  ``observe`` → :func:`throttle_sleep`; returns ``(target,
  sleep_seconds)``.

A thread with ARU off holds the shared :data:`NULL_CONTROLLER`, which
has no policy: it advertises nothing and never throttles. The
controller never sleeps or meters itself: the driver owns the engine
timeout and the meter's exclusion windows, so executors (DES, real
threads) differ only in how they realize the planned sleep.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.control.policy import PidPolicy, SummaryStpPolicy
from repro.control.sensor import StpSensor


def throttle_sleep(target_period: Optional[float], iteration_elapsed: float,
                   headroom: float = 1.0) -> float:
    """Seconds of sleep needed to stretch this iteration to the target.

    Paper §3.3.2: sources *"use the propagated summary-STP information
    to adjust their rate of data item production"* — a sleep at
    ``periodicity_sync()`` that tops the iteration up to the target
    period; threads already slower than the target sleep nothing.

    Parameters
    ----------
    target_period:
        The policy's target period (``None`` before any feedback has
        arrived — no throttling during cold start).
    iteration_elapsed:
        Wall time already spent in the current iteration, *including*
        blocking: the consumer-visible period is what must match.
    headroom:
        Multiplier on the target (``1.0`` reproduces the paper;
        :attr:`repro.aru.config.AruConfig.headroom` validates it).
    """
    if iteration_elapsed < 0:
        raise ValueError(f"negative iteration_elapsed: {iteration_elapsed}")
    if target_period is None:
        return 0.0
    if target_period < 0:
        raise ValueError(f"negative target period: {target_period}")
    return max(0.0, target_period * headroom - iteration_elapsed)


class ThreadController:
    """One thread's assembled feedback loop.

    Parameters
    ----------
    sensor / policy:
        The thread's STP sensor and rate policy; both ``None`` for
        :data:`NULL_CONTROLLER`.
    throttled:
        Whether this thread actuates at all. Paper behaviour: only
        source threads do; everyone else adapts by blocking (§3.3.2's
        cascading effect).
    headroom:
        Throttle target multiplier (:attr:`AruConfig.headroom
        <repro.aru.config.AruConfig.headroom>`).
    """

    def __init__(self, sensor: Optional[StpSensor],
                 policy: Union[SummaryStpPolicy, PidPolicy, None],
                 throttled: bool, headroom: float = 1.0) -> None:
        self.sensor = sensor
        self.policy = policy
        self.throttled = throttled
        self.headroom = headroom

    def outbound_summary(self) -> Optional[float]:
        """The summary value to piggyback upstream right now (``None``,
        the sensor unread, when ARU is off)."""
        if self.policy is None:
            return None
        return self.policy.advertise(self.sensor.read())

    def on_feedback(self, conn_id: object, value: Optional[float]) -> None:
        """Feedback returned by a put (None = the buffer had nothing)."""
        if value is not None:
            self.policy.on_feedback(conn_id, value)

    def plan_throttle(self) -> Tuple[Optional[float], float]:
        """Decide this iteration's ``(target_period, sleep_seconds)``.

        Non-throttled threads return ``(None, 0.0)`` without consulting
        the policy — their rate adapts indirectly, by blocking.
        """
        if not self.throttled:
            return None, 0.0
        signals = self.sensor.read()
        target = self.policy.observe(signals)
        return target, throttle_sleep(target, signals.iteration_elapsed,
                                      self.headroom)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ThreadController policy={type(self.policy).__name__} "
                f"throttled={self.throttled}>")


#: The controller of every thread with ARU off: no policy, no sensor,
#: never throttled. One shared instance, like the telemetry ``NULL_HUB``.
NULL_CONTROLLER = ThreadController(None, None, throttled=False)
