"""Thread-safe Stampede channel for the real-threads executor.

One lock and one condition variable around a
:class:`repro.runtime.channel.Channel`: matching, skip-marking, cursors,
reference counts, dooming, freeing, feedback and trace emission are that
class's, run here with the per-channel collector the runtime hands in
(DGC unless the spec says otherwise: the paper's experiments always run
on it, and a live executor without collection leaks without bound).
This shell adds only what real
threads need: mutual exclusion, wall-clock reads, and a blocking get
that honors a stop event so the runtime can shut down promptly.

Lock order is channel lock, then recorder lock, never the reverse. The
recorder lock (shared by every channel and driver of a runtime) is held
for the whole transition, nested inside the channel lock, so the trace
learns of a put, get, skip or free before any other thread can act on
it — a consumer woken by a put cannot record its get ahead of the alloc.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.control.propagation import FeedbackEndpoint
from repro.errors import SimulationError
from repro.gc import make_gc
from repro.runtime.channel import Channel
from repro.runtime.connection import InputConnection, OutputConnection
from repro.runtime.item import Item, ItemView
from repro.vt.timestamp import LATEST


class _ByteLedger:
    """Stands in for the cluster node: a name and a count of bytes held."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.in_use = 0

    def alloc(self, nbytes: int) -> None:
        self.in_use += nbytes

    def free(self, nbytes: int) -> None:
        self.in_use -= nbytes


class ThreadChannel:
    """One channel shared by real producer/consumer threads."""

    kind = "channel"

    def __init__(
        self,
        name: str,
        recorder,
        clock,
        feedback: Optional[FeedbackEndpoint] = None,
        recorder_lock: Optional[threading.Lock] = None,
        node: str = "local",
        gc=None,
    ) -> None:
        self.name = name
        self.clock = clock
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._rec_lock = recorder_lock or threading.Lock()
        self._ledger = _ByteLedger(node)
        self._state = Channel(
            None, name, self._ledger, recorder, make_gc(gc),
            feedback=feedback,
        )

    # -- registration ------------------------------------------------------
    def register_producer(self, thread: str) -> OutputConnection:
        with self._lock:
            return self._state.register_producer(thread)

    def register_consumer(self, thread: str) -> InputConnection:
        with self._lock:
            return self._state.register_consumer(thread)

    def resume_consumer(self, thread: str, last_got: int) -> InputConnection:
        """:meth:`Buffer.resume_consumer` in one locked step."""
        with self._lock:
            return self._state.resume_consumer(thread, last_got)

    def evict_consumer(self, thread: str) -> None:
        """Unregister ``thread``'s consumer connections (a reconnecting
        remote peer re-registers; its dead cursor must not freeze the DGC
        threshold, nor its backwardSTP slot keep steering the source)."""
        with self._lock:
            for conn in [c for c in self._state.in_conns if c.thread == thread]:
                self._state.unregister_consumer(conn)

    # -- introspection -------------------------------------------------------
    total_puts = property(lambda self: self._state.total_puts)
    total_gets = property(lambda self: self._state.total_gets)
    total_skips = property(lambda self: self._state.total_skips)
    total_frees = property(lambda self: self._state.total_frees)

    def __len__(self) -> int:
        with self._lock:
            return len(self._state)

    @property
    def bytes_held(self) -> int:
        return self._ledger.in_use

    def check_dead(self, ts: int) -> bool:
        """True when every consumer's cursor has passed ``ts``."""
        with self._lock:
            return self._state.check_dead(ts)

    # -- transitions -------------------------------------------------------
    def put(self, conn: OutputConnection, item: Item) -> Optional[float]:
        """Insert an item; returns the channel summary-STP (ARU feedback)."""
        with self._lock, self._rec_lock:
            summary = self._state.commit_put(conn, item, self.clock.now())
            self._cond.notify_all()
        return summary

    def get(
        self,
        conn: InputConnection,
        request=LATEST,
        consumer_summary: Optional[float] = None,
        stop: Optional[threading.Event] = None,
        timeout: float = 0.05,
        max_wait: Optional[float] = None,
    ) -> Optional[ItemView]:
        """Blocking get; returns None if ``stop`` fires or ``max_wait``
        (the timed-get deadline, seconds) expires while waiting."""
        state = self._state
        deadline = None if max_wait is None else self.clock.now() + max_wait
        with self._cond:
            while True:
                # Re-checked after every wait: an eviction can land while
                # this thread sleeps, and a get through the dead cursor
                # would resurrect the feedback slot the eviction removed.
                if conn not in state.in_conns:
                    raise SimulationError(
                        f"unregistered consumer on {self.name!r}")
                if state.try_match(conn, request):
                    break
                if stop is not None and stop.is_set():
                    return None
                wait_for = timeout
                if deadline is not None:
                    remaining = deadline - self.clock.now()
                    if remaining <= 0:
                        return None
                    wait_for = min(wait_for, remaining)
                self._cond.wait(timeout=wait_for)
            with self._rec_lock:
                return state.commit_get(
                    conn, request, self.clock.now(), consumer_summary)

    def try_get(self, conn: InputConnection, request=LATEST,
                consumer_summary: Optional[float] = None) -> Optional[ItemView]:
        """Non-blocking variant; None when nothing matches."""
        return self.get(conn, request, consumer_summary, max_wait=0.0)

    def receive_feedback(self, conn: InputConnection, summary: float) -> None:
        """A consumer summary that arrives without a get (a remote peer
        re-advertising after a reconnect)."""
        with self._lock:
            feedback = self._state.feedback
            if feedback is not None and conn in self._state.in_conns:
                feedback.receive(conn.conn_id, summary)

    def release(self, item: Item, t: Optional[float] = None) -> None:
        """Consumer done with the item (end of iteration). A driver's
        ``t`` is ignored: the free is stamped under the lock."""
        with self._lock, self._rec_lock:
            self._state.release(item, self.clock.now())
