"""The discrete-event simulation engine.

A minimal, deterministic event-calendar kernel. All simulated components
(channels, CPUs, network links, the ARU controller) are driven by one
:class:`Engine`. Time is a ``float`` in **seconds**.

Determinism contract
--------------------
* Events scheduled for the same instant fire in schedule (FIFO) order.
* The engine itself consumes no randomness; all stochastic behaviour comes
  from named :class:`~repro.sim.rng.RngRegistry` streams.
* The fast paths (cohort buckets, the current-tick FIFO, staged-timeout
  chaining, the inlined ``run`` loop) change only *how much work* one
  dispatch costs — never which entry fires next. Traces are bit-for-bit
  identical to the scalar ``step()`` loop (pinned by
  ``tests/sim/test_cohort_dispatch.py`` and the sweep/control/elastic
  differential harnesses).

Calendar architecture (see DESIGN.md §5c)
-----------------------------------------
The calendar is a cohort structure with three tiers:

* ``_buckets`` — ``dict[time -> list]`` mapping each distinct timestamp to
  its FIFO cohort of entries, plus ``_times`` — a heap of the *distinct*
  timestamps (each pushed exactly once, when its bucket is created).
  Pushing is O(1) amortised (one dict probe + list append); advancing the
  clock pops one float off a small heap — C-level float comparisons, no
  tuple allocation, and the heap holds one entry per distinct instant
  instead of one per event. FIFO order within a bucket *is* schedule
  order, because every push appends.
* ``_immediate`` — the *current-tick FIFO*: entries scheduled for exactly
  ``now`` while the engine is running (``succeed``/``fail``/zero-delay
  timeouts/process resumes). Ordering is exact: when a tick begins its
  bucket holds only entries scheduled on earlier ticks, so the engine
  drains the adopted bucket first, then the current-tick FIFO.
* ``_staged`` — a one-entry staging slot for the newest future
  :class:`Timeout` created during a dispatch. If the creating process
  immediately yields it and it is globally next (current bucket drained,
  no current-tick entries, no earlier distinct time), the run loop
  *chains*: the timeout fires directly and never touches the calendar.
  Otherwise it is flushed to its bucket before the next scheduling
  decision — and before any other push could land on its timestamp — so
  order is unchanged.

Example
-------
>>> from repro.sim.engine import Engine
>>> eng = Engine()
>>> def hello(eng, out):
...     yield eng.timeout(3.0)
...     out.append(eng.now)
>>> out = []
>>> _ = eng.process(hello(eng, out))
>>> eng.run()
>>> out
[3.0]
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from typing import Any, Dict, Generator, Iterable, List, Optional

from repro.errors import ProcessKilled, SimulationError
from repro.sim.events import _PENDING, AllOf, AnyOf, Event, Timeout, _Resume
from repro.sim.process import Process

#: Upper bound on recycled ``_Resume`` objects kept per engine. Bounds
#: memory while covering any realistic number of same-instant resumes.
#: Entries cancelled by a kill are recycled exactly like delivered ones
#: (pinned by ``tests/sim/test_resume_pool.py``).
_RESUME_POOL_MAX = 128

_INF = float("inf")


class Engine:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start:
        Initial simulated time (seconds). Defaults to ``0.0``.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        #: Distinct-timestamp cohorts: time -> FIFO list of entries.
        self._buckets: Dict[float, List[Any]] = {}
        #: Heap of the distinct timestamps present in ``_buckets``.
        self._times: List[float] = []
        #: The cohort currently being drained (its timestamp == ``now``);
        #: removed from ``_buckets`` and *reversed* on adoption so FIFO
        #: dispatch is an O(1) ``list.pop()`` from the tail.
        self._bucket: Optional[List[Any]] = None
        #: Current-tick FIFO: entries scheduled for exactly ``now`` while
        #: the engine is running. Drained after the adopted bucket.
        self._immediate: deque = deque()
        #: Staging slot for the newest future Timeout created mid-dispatch
        #: (deferred calendar insertion; enables the chain fast path).
        self._staged: Optional[Timeout] = None
        self._staged_when = 0.0
        self._running = False
        #: Monotonic count of processed events (useful for micro-benchmarks
        #: and run statistics). Slim resume entries count like the relay
        #: events they replaced; chained timeouts count like popped ones.
        self.events_processed = 0
        #: Free list of recycled ``_Resume`` calendar entries.
        self._resume_pool: List[_Resume] = []

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factory helpers -------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event` bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a simulated process; returns its handle."""
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have succeeded."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` succeeds."""
        return AnyOf(self, list(events))

    # -- scheduling core ---------------------------------------------------
    def _push(self, when: float, entry: Any) -> None:
        """Append ``entry`` to the cohort bucket for ``when``."""
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [entry]
            heappush(self._times, when)
        else:
            bucket.append(entry)

    def _flush_staged(self) -> None:
        """Move the staged timeout into its cohort bucket.

        Must run before any *other* push could land on the staged
        timestamp (``Timeout.__init__``/``_schedule`` flush first), so the
        bucket's FIFO order always equals schedule order.
        """
        staged = self._staged
        if staged is not None:
            self._staged = None
            self._push(self._staged_when, staged)

    def _schedule(self, event: Event, delay: float) -> None:
        """Put a triggered event on the calendar ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        when = self._now + delay
        if self._running and when == self._now:
            self._immediate.append(event)
        else:
            if self._staged is not None:
                self._flush_staged()
            self._push(when, event)

    def _schedule_resume(self, process: Process, ok: bool, value: Any) -> _Resume:
        """Schedule a slim immediate resume of ``process`` (fast path).

        Used for process starts and for yields of already-fired events;
        costs one pooled object instead of an :class:`Event` plus its
        callback list.
        """
        pool = self._resume_pool
        if pool:
            entry = pool.pop()
            entry.cancelled = False
        else:
            entry = _Resume()
        entry.process = process
        entry.ok = ok
        entry.value = value
        if self._running:
            self._immediate.append(entry)
        else:
            self._push(self._now, entry)
        return entry

    def _dispatch_resume(self, entry: _Resume) -> None:
        """Fire one popped ``_Resume`` entry and recycle it."""
        process, ok, value = entry.process, entry.ok, entry.value
        cancelled = entry.cancelled
        entry.process = None
        entry.value = None
        pool = self._resume_pool
        if len(pool) < _RESUME_POOL_MAX:
            pool.append(entry)
        if not cancelled:
            process._resume_direct(ok, value)
        elif process._waiting_on is entry:
            # The waiter was killed while this entry was in flight. Drop
            # its reference before the entry is recycled, so a later kill
            # delivery cannot flag ``cancelled`` on a reused pool object.
            process._waiting_on = None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the calendar is empty."""
        if self._bucket or self._immediate:
            return self._now
        if self._staged is not None:
            self._flush_staged()
        return self._times[0] if self._times else _INF

    def step(self) -> None:
        """Process exactly one event; advances :attr:`now`.

        This is the *scalar* dispatch path: one selection, one dispatch,
        no batching, no chaining. ``run()`` is behaviourally identical
        (pinned by the cohort property suite) but batches the work.
        """
        bucket = self._bucket
        if bucket:
            event = bucket.pop()
        elif self._immediate:
            event = self._immediate.popleft()
        else:
            # Clock advance: a staged timeout is always in the future, so
            # this is the first point where it could be next — flush it.
            if self._staged is not None:
                self._flush_staged()
            if not self._times:
                raise SimulationError("step() on an empty calendar")
            when = heappop(self._times)
            if when < self._now:  # pragma: no cover - defensive
                raise SimulationError("calendar went backwards")
            cohort = self._buckets.pop(when)
            cohort.reverse()
            self._now = when
            self._bucket = cohort
            event = cohort.pop()
        self.events_processed += 1
        if type(event) is _Resume:
            self._dispatch_resume(event)
            return
        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        for cb in callbacks:
            cb(event)
        if event._ok is False and not event.defused:
            # Nobody waited on this failure: surface it to the caller of run().
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains or simulated time reaches ``until``.

        When ``until`` is given, time is advanced to exactly ``until`` even
        if the last event fires earlier, so time-weighted statistics close
        their final interval consistently.

        This is the kernel's hottest loop. It drains each same-timestamp
        cohort as a batch (one clock write per distinct instant: adopted
        bucket first, then the current-tick FIFO), dispatches process
        resumes by advancing their generators inline, and *chains* the
        dominant ``yield engine.timeout(d)`` pattern: a freshly staged
        timeout that is globally next fires without ever touching the
        calendar. Semantics are identical to calling :meth:`step` until
        done.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        limit = None if until is None else float(until)
        if limit is not None and limit < self._now:
            raise SimulationError("until lies in the past")
        self._running = True
        # Hoisted hot locals: every name in the loop below is a fast load.
        buckets = self._buckets
        times = self._times
        imm = self._immediate
        pool = self._resume_pool
        pop = heappop
        pending = _PENDING
        resume_cls = _Resume
        now = self._now
        ec = 0  # local events_processed accumulator
        # The dispatch path builds no reference cycles (pinned by
        # tests/sim/test_gc_pause.py), so the interpreter's cyclic
        # collector would only re-walk a heap the trace keeps growing:
        # pause it for the loop, restore the caller's setting after.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while True:
                # --- select the next entry (cohort order) ---------------
                bucket = self._bucket
                if bucket:
                    event = bucket.pop()
                elif imm:
                    event = imm.popleft()
                else:
                    # Clock advance: a staged timeout is always in the
                    # future, so only here could it be next — flush it.
                    if self._staged is not None:
                        self._flush_staged()
                    if not times:
                        break
                    when = times[0]
                    if limit is not None and when > limit:
                        break
                    if when < now:  # pragma: no cover - defensive
                        raise SimulationError("calendar went backwards")
                    pop(times)
                    cohort = buckets.pop(when)
                    cohort.reverse()
                    self._now = now = when
                    self._bucket = cohort
                    event = cohort.pop()
                ec += 1
                # --- dispatch it ----------------------------------------
                if event.__class__ is resume_cls:
                    proc = event.process
                    value = event.value
                    ok = event.ok
                    cancelled = event.cancelled
                    event.process = None
                    event.value = None
                    if len(pool) < _RESUME_POOL_MAX:
                        pool.append(event)
                    if cancelled:
                        # Killed while in flight: counted no-op (the entry
                        # was recycled above — kills do not leak pool slots).
                        if proc._waiting_on is event:
                            proc._waiting_on = None
                        continue
                    if proc._value is not pending:
                        continue
                    proc._waiting_on = None
                    if not ok:
                        proc._throw(value)
                        now = self._now
                        continue
                else:
                    callbacks = event.callbacks
                    event.callbacks = None  # mark processed
                    if callbacks:
                        for cb in callbacks:
                            cb(event)  # Process waiters are callable
                        if event._ok is False and not event.defused:
                            raise event._value
                        now = self._now
                    elif event._ok is False and not event.defused:
                        raise event._value
                    continue
                # --- resume `proc` with `value` (successful resume) -----
                gen_send = proc.gen.send
                while True:
                    try:
                        target = gen_send(value)
                    except StopIteration as stop:
                        proc.succeed(stop.value)
                        break
                    except ProcessKilled as exc:
                        proc.defused = True
                        # No traceback: it would pin the dead frames in
                        # a cycle through the stored exception.
                        proc.fail(exc.with_traceback(None))
                        break
                    except BaseException as exc:
                        proc.fail(exc)
                        break
                    # Chain: the process yielded the timeout it just
                    # created, and nothing else fires before it.
                    if (
                        target is self._staged
                        and not imm
                        and not self._bucket
                        and (limit is None or self._staged_when <= limit)
                        and (not times or self._staged_when < times[0])
                        and self._now == now
                    ):
                        self._staged = None
                        target.callbacks = None  # processed
                        ec += 1
                        self._now = now = self._staged_when
                        value = target._value
                        continue
                    # Generic wait registration.
                    if isinstance(target, Event):
                        tcb = target.callbacks
                        if tcb is not None:
                            tcb.append(proc)
                            proc._waiting_on = target
                        else:
                            # Already fired: stay asynchronous through a
                            # slim resume entry on the current-tick FIFO.
                            if target._ok:
                                ok = True
                            else:
                                target.defused = True
                                ok = False
                            if pool:
                                entry = pool.pop()
                                entry.cancelled = False
                            else:
                                entry = resume_cls()
                            entry.process = proc
                            entry.ok = ok
                            entry.value = target._value
                            imm.append(entry)
                            proc._waiting_on = entry
                    else:
                        proc._wait_on(target)  # raises SimulationError
                    break
                now = self._now
            if limit is not None:
                self._now = limit
        finally:
            if gc_was_enabled:
                gc.enable()
            self._running = False
            self.events_processed += ec
            if self._staged is not None:
                # Unwind mid-dispatch (an exception surfaced out of the
                # loop): park the staged timeout on the calendar so the
                # engine remains consistent for a subsequent run().
                self._flush_staged()

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` is processed; returns its value.

        An event scheduled *exactly at* ``limit`` is still processed (the
        cut-off is exclusive: ``peek() > limit`` aborts). Raises
        :class:`SimulationError` if the calendar drains (or ``limit`` is
        hit) before the event fires.
        """
        while event.callbacks is not None:
            nxt = self.peek()
            if nxt == _INF:
                raise SimulationError("calendar drained before event fired")
            if limit is not None and nxt > limit:
                raise SimulationError("time limit reached before event fired")
            self.step()
        if not event._ok:
            raise event._value
        return event._value
