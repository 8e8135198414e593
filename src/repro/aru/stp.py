"""Sustainable Thread Period (STP) measurement — paper §3.3.1, fig. 2.

The STP is *"the time it takes to execute one iteration of a thread
loop"*, measured at runtime from clock readings taken at each
``periodicity_sync()`` call, **excluding blocking time** (time spent
waiting for an upstream stage to produce data). We additionally exclude
ARU throttle sleep — sleeping to match downstream is not part of the
thread's intrinsic minimum period.

``current-STP`` therefore captures *"the minimum time required to produce
an item given present load conditions"*: compute segments inflated by OS
noise and SMP contention, plus put/transfer overheads, but not waiting.
"""

from __future__ import annotations

from typing import Optional

from repro.aru.filters import NO_FILTER, Filter
from repro.errors import SimulationError
from repro.vt.clock import Clock


class StpMeter:
    """Per-thread iteration-period meter.

    Usage: the thread driver calls :meth:`block_started`/:meth:`block_ended`
    around get-blocking, :meth:`sleep_started`/:meth:`sleep_ended` around
    throttle sleeps, and :meth:`sync` at each ``periodicity_sync()``.
    :meth:`sync` returns the (optionally filtered) current-STP for the
    completed iteration.
    """

    def __init__(self, clock: Clock, stp_filter: Optional[Filter] = None) -> None:
        self._clock = clock
        self._filter = stp_filter or NO_FILTER
        self._iter_start = clock.now()
        self._excluded = 0.0
        self._pause_start: Optional[float] = None
        self._pause_kind: Optional[str] = None
        #: Most recent filtered current-STP (None until the first sync).
        self.current_stp: Optional[float] = None
        #: Most recent *raw* (unfiltered) iteration period.
        self.raw_stp: Optional[float] = None
        #: Number of completed iterations.
        self.iterations = 0
        #: Cumulative blocked / slept seconds (for metrics).
        self.total_blocked = 0.0
        self.total_slept = 0.0

    # -- pause bookkeeping -------------------------------------------------
    def _pause(self, kind: str) -> None:
        if self._pause_start is not None:
            raise SimulationError(
                f"nested {kind} inside {self._pause_kind}: meter supports "
                "one exclusion window at a time"
            )
        self._pause_start = self._clock.now()
        self._pause_kind = kind

    def _unpause(self, kind: str) -> float:
        if self._pause_start is None or self._pause_kind != kind:
            raise SimulationError(f"{kind}_ended without matching {kind}_started")
        elapsed = self._clock.now() - self._pause_start
        self._excluded += elapsed
        self._pause_start = None
        self._pause_kind = None
        return elapsed

    def block_started(self) -> None:
        """A blocking get began."""
        self._pause("block")

    def block_ended(self) -> None:
        """The blocking get returned."""
        self.total_blocked += self._unpause("block")

    def sleep_started(self) -> None:
        """An ARU throttle sleep began."""
        self._pause("sleep")

    def sleep_ended(self) -> None:
        """The throttle sleep finished."""
        self.total_slept += self._unpause("sleep")

    # -- iteration boundary --------------------------------------------------
    def sync(self) -> float:
        """Close the current iteration; returns the filtered current-STP.

        Mirrors fig. 2: clock reading at the end of each loop iteration,
        minus the excluded (blocked/slept) intervals of that iteration.
        """
        if self._pause_start is not None:
            raise SimulationError("sync() during an open exclusion window")
        now = self._clock.now()
        raw = (now - self._iter_start) - self._excluded
        if raw < 0:  # pragma: no cover - defensive; clocks are monotonic
            raise SimulationError(f"negative STP: {raw}")
        self.raw_stp = raw
        self.current_stp = self._filter(raw)
        self.iterations += 1
        self._iter_start = now
        self._excluded = 0.0
        return self.current_stp

    @property
    def iteration_elapsed(self) -> float:
        """Wall time since the current iteration began (including pauses).

        This is what source throttling compares against the target period:
        the thread needs to *top up* its iteration to the target, counting
        everything that already elapsed.
        """
        return self._clock.now() - self._iter_start
