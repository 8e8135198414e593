"""What channels and queues share: connections, capacity, accounting.

:class:`~repro.runtime.channel.Channel` and
:class:`~repro.runtime.squeue.SQueue` differ in *which* item a get
returns and *when* storage is reclaimed; everything around that is the
same and lives here once — the connection lists, the feedback endpoint,
the gets blocked here, the capacity bound with its wait queue for room,
and the alloc/free accounting that keeps node memory and the trace in
step. A blocked get is one ``(event, conn, request)`` record: a notify
re-tests each record with the buffer's own ``_match``, oldest first, and
fires the event of each that would now commit. The counts kept here are
what telemetry exports: it reads them
(:func:`repro.obs.hub.buffer_series`), nothing is pushed to it per item.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.control.propagation import FeedbackEndpoint
from repro.errors import SimulationError
from repro.runtime.connection import InputConnection, OutputConnection
from repro.runtime.item import Item
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import WaitQueue
from repro.vt.timestamp import LATEST

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node
    from repro.metrics.recorder import TraceRecorder


class Buffer:
    """Base of every named buffer placed on a cluster node.

    ``engine`` may be ``None`` for a shell that does its own waiting
    (:class:`~repro.rt_threads.channel.ThreadChannel`): nothing here
    reads it, and no get or put then blocks here, so notifying is a
    no-op. ``node`` needs ``name``, ``alloc`` and ``free``. Subclasses
    set ``kind`` (the telemetry and stats label) and ``collector`` (what
    frees their items, the reclaim label) and define ``__len__``,
    ``bytes_held`` and ``_match`` (the item a get through a connection
    would commit now, or None).
    """

    #: Items skipped unread (a queue never skips).
    total_skips = 0
    #: Consumer thread -> ``[gets, skips]`` of its connections since
    #: unregistered (restart, scale-in, departure), so that no count a
    #: connection kept is lost with it. None until the first one goes.
    retired_reads: Optional[Dict[str, List[int]]] = None
    #: Blocked gets, oldest first: ``(event, conn, request)``. A list
    #: from the first get that blocks; until then the empty tuple.
    _getters: List[Tuple[Event, InputConnection, object]] = ()

    def __init__(
        self,
        engine: Optional[Engine],
        name: str,
        node: "Node",
        recorder: "TraceRecorder",
        capacity: Optional[int],
        feedback: Optional[FeedbackEndpoint],
        obs,
    ) -> None:
        self.engine = engine
        self.name = name
        self.node = node
        self.recorder = recorder
        self.obs = obs
        self.feedback = feedback
        self.capacity = capacity
        self.in_conns: List[InputConnection] = []
        self.out_conns: List[OutputConnection] = []
        #: Waiters for room; an unbounded buffer never has any.
        self._putters = WaitQueue(engine) if capacity is not None else None
        self.total_puts = 0
        self.total_gets = 0
        self.total_frees = 0
        self.freed_bytes = 0
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
        if self.retired_reads is None:
            self.retired_reads = {}
        reads = self.retired_reads.setdefault(conn.thread, [0, 0])
        reads[0] += conn.gets
        reads[1] += conn.skips

    # -- introspection ------------------------------------------------------
    def check_dead(self, ts: int) -> bool:
        """Would an item with ``ts`` be skipped by every consumer?"""
        conns = self.in_conns
        return bool(conns) and all(conn.last_got >= ts for conn in conns)

    @property
    def unfreed_bytes(self) -> int:
        """Bytes put here and not yet freed."""
        return self.bytes_held

    # -- capacity and waiting -----------------------------------------------
    def has_room(self) -> bool:
        return self.capacity is None or len(self) < self.capacity

    def wait_for_room(self) -> Event:
        """Event firing when the capacity bound admits another item."""
        return self._putters.wait(lambda: self.has_room() or None)

    def request_get(self, conn: InputConnection, request=LATEST) -> Event:
        """Event firing when a get through ``conn`` can commit: at once
        if it can now, else at the first notify that finds it can."""
        if conn not in self.in_conns:
            raise SimulationError(f"unregistered consumer on {self.name!r}")
        ev = Event(self.engine)
        if self._match(conn, request) is not None:
            ev.succeed(True)
        elif self._getters:
            self._getters.append((ev, conn, request))
        else:
            self._getters = [(ev, conn, request)]
        return ev

    def try_match(self, conn: InputConnection, request=LATEST) -> bool:
        """Non-blocking availability test."""
        return self._match(conn, request) is not None

    def _notify_getters(self) -> None:
        """Fire every blocked get that would now commit, oldest first,
        and drop those fired or already triggered (killed or timed out)."""
        getters = self._getters
        if not getters:
            return
        waiting = []
        for record in getters:
            ev = record[0]
            if ev.triggered:
                continue
            if self._match(record[1], record[2]) is None:
                waiting.append(record)
            else:
                ev.succeed(True)
        self._getters = waiting

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending get request (timed-get expiry)."""
        self._getters = [record for record in self._getters
                         if record[0] is not event]

    # -- accounting ---------------------------------------------------------
    def _account_put(self, item: Item, t: float) -> None:
        """``item`` now occupies storage here: counters, node, trace, spans."""
        self.total_puts += 1
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
        if self.obs.spans_on:
            self.obs.span_put(self.name, item, t)

    def _account_free(self, item: Item, t: float) -> None:
        """``item``'s storage is reclaimed (the caller already unlinked it)."""
        item.freed = True
        self.total_frees += 1
        self.freed_bytes += item.size
        self.node.free(item.size)
        self.recorder.on_free(item.item_id, t)
        if self.obs.spans_on:
            self.obs.span_free(item, t)
