"""What channels and queues share: connections, capacity, accounting.

:class:`~repro.runtime.channel.Channel` and
:class:`~repro.runtime.squeue.SQueue` differ in *which* item a get
returns and *when* storage is reclaimed; everything around that is the
same and lives here once — the connection lists, the feedback endpoint,
the wait queue for gets, the capacity bound with its wait queue for room,
and the alloc/free accounting that keeps node memory, the trace and
telemetry in step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.control.propagation import FeedbackEndpoint
from repro.errors import SimulationError
from repro.runtime.connection import InputConnection, OutputConnection
from repro.runtime.item import Item
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import WaitQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node
    from repro.metrics.recorder import TraceRecorder


class Buffer:
    """Base of every named buffer placed on a cluster node.

    ``engine`` may be ``None`` for a shell that does its own waiting
    (:class:`~repro.rt_threads.channel.ThreadChannel`): nothing here
    reads it, and its wait queues then never hold a waiter, so
    notifying them is a no-op. ``node`` needs ``name``, ``alloc`` and
    ``free``. ``collector`` labels the free-side telemetry; subclasses
    set ``kind`` (the telemetry and stats label) and define ``__len__``.
    """

    def __init__(
        self,
        engine: Optional[Engine],
        name: str,
        node: "Node",
        recorder: "TraceRecorder",
        collector: str,
        capacity: Optional[int],
        feedback: Optional[FeedbackEndpoint],
        obs,
    ) -> None:
        self.engine = engine
        self.name = name
        self.node = node
        self.recorder = recorder
        self.obs = obs
        # Fixed-slot telemetry handles, resolved once here instead of a
        # (name, labels) registry lookup per operation (ISSUE 7). With
        # telemetry or metrics off these are shared no-ops.
        self._put_h = obs.put_handle(name, self.kind)
        self._free_h = obs.free_handle(name, self.kind, collector)
        self.feedback = feedback
        self.capacity = capacity
        self.in_conns: List[InputConnection] = []
        self.out_conns: List[OutputConnection] = []
        self._getters = WaitQueue(engine)
        #: Waiters for room; an unbounded buffer never has any.
        self._putters = WaitQueue(engine) if capacity is not None else None
        self.total_puts = 0
        self.total_gets = 0
        self.total_frees = 0
        # Collector state (:mod:`repro.gc.dgc`): pass due, last threshold, last move.
        self._gc_due = True
        self._gc_threshold = -1
        self._cursor_from = -1

    # -- registration ------------------------------------------------------
    def register_producer(self, thread: str) -> OutputConnection:
        conn = OutputConnection(thread=thread, buffer=self.name)
        self.out_conns.append(conn)
        return conn

    def register_consumer(self, thread: str) -> InputConnection:
        conn = InputConnection(buffer=self.name, thread=thread)
        obs = self.obs
        if obs.enabled:
            conn.get_h = obs.get_handle(self.name, self.kind, thread)
            conn.skip_h = obs.skip_handle(self.name, thread)
        self.in_conns.append(conn)
        self._gc_due = True
        return conn

    def resume_consumer(self, thread: str, last_got: int) -> InputConnection:
        """Register a reconnecting consumer, its cursor already at
        ``last_got`` — with ``commit_get`` the only way a cursor moves."""
        conn = self.register_consumer(thread)
        conn.last_got = max(conn.last_got, last_got)
        return conn

    def unregister_producer(self, conn: OutputConnection) -> None:
        """Detach a producer connection (thread restart/teardown)."""
        try:
            self.out_conns.remove(conn)
        except ValueError:
            raise SimulationError(
                f"producer {conn.thread!r} not registered on {self.name!r}"
            ) from None

    def unregister_consumer(self, conn: InputConnection) -> None:
        """Detach a consumer connection (thread restart/teardown).

        Evicts the connection's backwardSTP slot immediately — a removed
        consumer must stop influencing throttling right away — and drops
        its cursor from the DGC threshold, unfreezing garbage collection
        for items only the dead consumer was behind on.
        """
        try:
            self.in_conns.remove(conn)
        except ValueError:
            raise SimulationError(
                f"consumer {conn.thread!r} not registered on {self.name!r}"
            ) from None
        self._gc_due = True
        if self.feedback is not None:
            self.feedback.detach(conn.conn_id)

    # -- introspection ------------------------------------------------------
    def check_dead(self, ts: int) -> bool:
        """Would an item with ``ts`` be skipped by every consumer?"""
        conns = self.in_conns
        return bool(conns) and all(conn.last_got >= ts for conn in conns)

    # -- capacity and waiting -----------------------------------------------
    def has_room(self) -> bool:
        return self.capacity is None or len(self) < self.capacity

    def wait_for_room(self) -> Event:
        """Event firing when the capacity bound admits another item."""
        return self._putters.wait(lambda: self.has_room() or None)

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending get request (timed-get expiry)."""
        self._getters.cancel(event)

    # -- accounting ---------------------------------------------------------
    def _account_put(self, conn: OutputConnection, item: Item, t: float) -> None:
        """``item`` now occupies storage here: counters, node, trace, telemetry."""
        self.total_puts += 1
        conn.puts += 1
        self.node.alloc(item.size)
        self.recorder.on_alloc(
            item_id=item.item_id,
            channel=self.name,
            node=self.node.name,
            ts=item.ts,
            size=item.size,
            producer=item.producer,
            parents=item.parents,
            t=t,
        )
        obs = self.obs
        if obs.enabled:
            self._put_h.add(1.0, item.size)
            if obs.spans_on:
                obs.span_put(self.name, item, t)

    def _account_free(self, item: Item, t: float) -> None:
        """``item``'s storage is reclaimed (the caller already unlinked it)."""
        item.freed = True
        self.total_frees += 1
        self.node.free(item.size)
        self.recorder.on_free(item.item_id, t)
        obs = self.obs
        if obs.enabled:
            self._free_h.add(1.0, item.size)
            if obs.spans_on:
                obs.span_free(item, t)
