"""The STP sensor: a thread's meter read as :class:`~repro.control.signals.Signals`.

The sensor wraps the paper's :class:`~repro.aru.stp.StpMeter` (§3.3.1)
and hands immutable snapshots to the policy, so a policy works
unchanged on the DES executor, the real-threads executor, or a
hand-built test harness.
"""

from __future__ import annotations

from typing import Callable

from repro.aru.stp import StpMeter
from repro.control.signals import Signals


class StpSensor:
    """Sustainable-thread-period metering of one thread.

    ``read()`` is side-effect free: a read never advances meter state
    (the thread driver owns block/sleep/sync bookkeeping).
    """

    def __init__(self, meter: StpMeter, time_fn: Callable[[], float]) -> None:
        self.meter = meter
        self._time_fn = time_fn

    def read(self) -> Signals:
        m = self.meter
        return Signals(
            now=self._time_fn(),
            current_stp=m.current_stp,
            raw_stp=m.raw_stp,
            iteration_elapsed=m.iteration_elapsed,
            iterations=m.iterations,
        )
