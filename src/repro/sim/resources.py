"""Shared-resource primitives for simulated processes.

Two primitives cover everything the runtime needs:

* :class:`Resource` — a counted FIFO resource (CPU pools, network links).
* :class:`WaitQueue` — a predicate-based condition variable (a bounded
  buffer's putters waiting for room, a transfer waiting for its link's
  restore). A blocked get needs no predicate: it is a record on its
  buffer (:class:`~repro.runtime.buffer.Buffer`).

Both hand out plain :class:`~repro.sim.events.Event` objects so they can be
``yield``-ed from process bodies.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine


class Resource:
    """A counted resource with FIFO granting.

    ``capacity`` units exist; a :meth:`request` grants one unit immediately
    if available, otherwise the requester queues. :meth:`release` hands the
    unit to the longest-waiting requester.

    The grant event's value is the resource itself (convenient for
    ``with``-less usage inside generators).
    """

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = int(capacity)
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        #: Cumulative statistics for utilisation reports.
        self.total_grants = 0
        self.total_wait_time = 0.0
        self._request_times: dict[int, float] = {}

    # ------------------------------------------------------------------
    @property
    def in_use(self) -> int:
        """Units currently granted."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Requests currently waiting."""
        return len(self._waiters)

    def request(self) -> Event:
        """Ask for one unit; the returned event fires when granted."""
        ev = Event(self.engine)
        self._request_times[id(ev)] = self.engine.now
        if self._in_use < self.capacity:
            self._grant(ev)
        else:
            self._waiters.append(ev)
        return ev

    def _grant(self, ev: Event) -> None:
        self._in_use += 1
        self.total_grants += 1
        t0 = self._request_times.pop(id(ev), self.engine.now)
        self.total_wait_time += self.engine.now - t0
        ev.succeed(self)

    def release(self) -> None:
        """Return one unit; FIFO-grants it to a waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        while self._waiters:
            ev = self._waiters.popleft()
            if ev.triggered:  # cancelled externally
                continue
            self._grant(ev)
            break

    def cancel(self, ev: Event) -> None:
        """Withdraw a pending request (no-op if already granted)."""
        if not ev.triggered:
            try:
                self._waiters.remove(ev)
            except ValueError:
                pass
            self._request_times.pop(id(ev), None)


class WaitQueue:
    """Predicate-based condition variable.

    A waiter registers with an optional ``predicate()`` callable; every
    :meth:`notify_all` re-evaluates the predicates of all waiters (in FIFO
    order) and fires those that return a non-``None``/truthy value — the
    predicate's return value becomes the event value. A ``None`` predicate
    fires on any notification with the value passed to ``notify_all``.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._waiters: List[Tuple[Event, Optional[Callable[[], Any]]]] = []

    def __len__(self) -> int:
        return len(self._waiters)

    def wait(self, predicate: Optional[Callable[[], Any]] = None) -> Event:
        """Wait until a notification satisfies ``predicate``.

        If the predicate is *already* satisfied the event fires at the next
        engine step without requiring a notify.
        """
        ev = Event(self.engine)
        if predicate is not None:
            value = predicate()
            if value:
                ev.succeed(value)
                return ev
        self._waiters.append((ev, predicate))
        return ev

    def notify_all(self, value: Any = None) -> int:
        """Wake every waiter whose predicate is now satisfied.

        Returns the number of events fired.
        """
        fired = 0
        remaining: List[Tuple[Event, Optional[Callable[[], Any]]]] = []
        for ev, predicate in self._waiters:
            if ev.triggered:  # cancelled/killed externally
                continue
            if predicate is None:
                ev.succeed(value)
                fired += 1
            else:
                result = predicate()
                if result:
                    ev.succeed(result)
                    fired += 1
                else:
                    remaining.append((ev, predicate))
        self._waiters = remaining
        return fired
