"""The signal record flowing from sensors to policies.

A :class:`Signals` snapshot is what a
:class:`~repro.control.sensor.StpSensor` hands to a rate policy at each
decision point (every piggyback opportunity and every
``periodicity_sync()``). It carries *measurements only* — the feedback
state lives in the policy — so a policy can be unit-tested by
constructing snapshots by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Signals:
    """One sensor snapshot of a thread's observable state.

    Attributes
    ----------
    now:
        Clock reading (simulated or wall seconds) at snapshot time.
    current_stp:
        The thread's filtered current-STP (paper §3.3.1) — ``None``
        until the first completed iteration.
    raw_stp:
        The unfiltered period of the last completed iteration.
    iteration_elapsed:
        Wall time already spent in the *open* iteration, including
        blocking — what a throttle actuator must top up to the target.
    iterations:
        Completed iterations so far.
    """

    now: float
    current_stp: Optional[float]
    raw_stp: Optional[float]
    iteration_elapsed: float
    iterations: int = 0
