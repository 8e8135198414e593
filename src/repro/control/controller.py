"""The per-thread controller: sensor + policy + actuator, assembled.

:class:`ThreadController` is what a thread driver holds instead of raw
ARU state. The driver keeps its three obligations — piggyback an
outbound summary on gets, deliver put feedback, and throttle at
``periodicity_sync()`` — but each is now one call into the control
plane, with the measurement/decision/actuation split hidden behind it:

* :meth:`~ThreadController.outbound_summary` — sensor read → policy
  ``advertise``; the value piggybacked upstream on a get;
* :meth:`~ThreadController.on_feedback` — the value a put returned,
  delivered to the policy;
* :meth:`~ThreadController.plan_throttle` — sensor read → policy
  ``observe`` → actuator ``plan``; returns ``(target, sleep_seconds)``.

The controller never sleeps or meters itself: the driver owns the
engine timeout and the meter's exclusion windows, so executors (DES,
real threads) differ only in how they realize the planned sleep.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.aru.stp import StpMeter
from repro.control.actuator import Actuator
from repro.control.policy import RatePolicy
from repro.control.sensor import Sensor


class ThreadController:
    """One thread's assembled feedback loop.

    Parameters
    ----------
    sensor / policy / actuator:
        The three pluggable layers.
    throttled:
        Whether this thread actuates at all. Paper behaviour: only
        source threads do; everyone else adapts by blocking (§3.3.2's
        cascading effect).
    """

    def __init__(self, sensor: Sensor, policy: RatePolicy,
                 actuator: Actuator, throttled: bool) -> None:
        self.sensor = sensor
        self.policy = policy
        self.actuator = actuator
        self.throttled = throttled

    @property
    def meter(self) -> StpMeter:
        """The thread's STP meter (the driver does block/sleep
        bookkeeping against it directly)."""
        return self.sensor.meter

    def outbound_summary(self) -> Optional[float]:
        """The summary value to piggyback upstream right now (``None``,
        the sensor unread, when ``policy.propagates`` is false)."""
        if not self.policy.propagates:
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
        return target, self.actuator.plan(target, signals)

    def reset(self) -> None:
        """Cold-restart the decision state (supervisor thread restart)."""
        self.policy.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ThreadController policy={self.policy.kind} "
                f"throttled={self.throttled}>")
