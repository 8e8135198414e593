"""Clock abstraction shared by the two executors.

Runtime components (STP meters, trace recorders) read time through a
:class:`Clock` so the same code runs under simulated time (DES) and wall
time (real threads).
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

from repro.sim.engine import Engine


@runtime_checkable
class Clock(Protocol):
    """Anything with a ``now()`` returning seconds as float."""

    def now(self) -> float:  # pragma: no cover - protocol
        ...


class SimClock:
    """Reads the simulated time of a DES engine."""

    __slots__ = ("_engine",)

    def __init__(self, engine: Engine) -> None:
        self._engine = engine

    def now(self) -> float:
        return self._engine._now  # not the property: read ~2x per event


class WallClock:
    """Monotonic wall-clock time, re-based to 0 at construction."""

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._t0


class EpochClock:
    """Wall-clock time measured from a shared epoch (UNIX seconds).

    Distributed workers cannot use :class:`WallClock` — each process
    would rebase to its own construction instant and the merged traces
    would sit on disjoint time axes. The launcher broadcasts one epoch
    ``t0`` in its START message; every worker rebases to it, so all
    workers' ``now()`` share base ~0. Uses ``time.time()`` (the only
    cross-process clock); NTP-grade skew applies and is documented in
    ``docs/distributed.md``.
    """

    __slots__ = ("_epoch",)

    def __init__(self, epoch: float = None) -> None:
        self._epoch = time.time() if epoch is None else float(epoch)

    def rebase(self, epoch: float) -> None:
        """Adopt the shared epoch (before any timestamps are recorded)."""
        self._epoch = float(epoch)

    def now(self) -> float:
        return time.time() - self._epoch


class ManualClock:
    """A hand-advanced clock, handy in unit tests of time-based logic."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("clocks do not go backwards")
        self._now += dt

    def set(self, t: float) -> None:
        if t < self._now:
            raise ValueError("clocks do not go backwards")
        self._now = float(t)
