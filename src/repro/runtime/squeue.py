"""Stampede queues: FIFO, destructive-read buffers.

Queues complement channels (§1: "abstractions, such as Channels and
Queues"): a queue delivers every item exactly once, in arrival order, to
whichever consumer pops first (work-queue semantics). No skipping happens,
so queues create no GC problem: an item is freed when the consumer that
popped it releases it at the end of its iteration.

Feedback piggybacking works exactly as for channels: gets carry the
consumer's summary into the queue's
:class:`~repro.control.propagation.FeedbackEndpoint`; puts return the
queue's compressed summary to the producer.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.control.propagation import FeedbackEndpoint
from repro.errors import SimulationError
from repro.obs.hub import NULL_HUB
from repro.runtime.buffer import Buffer
from repro.runtime.connection import InputConnection, OutputConnection
from repro.runtime.item import Item, ItemView
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node
    from repro.metrics.recorder import TraceRecorder


class SQueue(Buffer):
    """One named FIFO queue placed on a cluster node."""

    kind = "queue"
    #: Queues self-manage storage, hence the fixed reclaim label.
    collector = "queue"

    def __init__(
        self,
        engine: Engine,
        name: str,
        node: "Node",
        recorder: "TraceRecorder",
        capacity: Optional[int] = None,
        feedback: Optional[FeedbackEndpoint] = None,
        obs=NULL_HUB,
    ) -> None:
        super().__init__(engine, name, node, recorder, capacity, feedback, obs)
        self._fifo: Deque[Item] = deque()
        #: Bytes put here: a popped item has left the FIFO but holds its
        #: storage until released, so ``bytes_held`` cannot tell it.
        self.put_bytes = 0

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def bytes_held(self) -> int:
        return sum(item.size for item in self._fifo)

    @property
    def unfreed_bytes(self) -> int:
        return self.put_bytes - self.freed_bytes

    # -- put side ----------------------------------------------------------
    def commit_put(self, conn: OutputConnection, item: Item, t: float) -> Optional[float]:
        """Append ``item``; returns the queue's summary-STP (ARU feedback)."""
        if not self.has_room():
            raise SimulationError(f"commit_put on full queue {self.name!r}")
        self._fifo.append(item)
        self.put_bytes += item.size
        self._account_put(item, t)
        self._notify_getters()
        return self.feedback.advertise() if self.feedback is not None else None

    # -- get side ----------------------------------------------------------
    def _match(self, conn: InputConnection, request: object) -> Optional[Item]:
        """The head item (``request`` ignored — queues are strictly FIFO)."""
        return self._fifo[0] if self._fifo else None

    def _pop(self, conn: InputConnection) -> Item:
        """Remove and return the item ``conn``'s get delivers."""
        if not self._fifo:
            raise SimulationError(f"commit_get on empty queue {self.name!r}")
        return self._fifo.popleft()

    def commit_get(
        self,
        conn: InputConnection,
        request: object,
        t: float,
        consumer_summary: Optional[float] = None,
    ) -> ItemView:
        """Pop the head item (removed from the queue, freed at release)."""
        item = self._pop(conn)
        conn.last_got = max(conn.last_got, item.ts)
        conn.gets += 1
        self.total_gets += 1
        item.acquire()
        self.recorder.on_get(item.item_id, conn.conn_id, conn.thread, t)
        if self.obs.spans_on:
            self.obs.span_get(item, conn.thread, t)
        if self.feedback is not None and consumer_summary is not None:
            self.feedback.receive(conn.conn_id, consumer_summary)
        if self.capacity is not None:
            self._putters.notify_all()
        return ItemView(item, self.name)

    def release(self, item: Item, t: float) -> None:
        """Consumer finished with a popped item — storage is reclaimed."""
        item.release()
        if item.refcount == 0 and not item.freed:
            self._account_free(item, t)

    def maybe_collect(self, t: float) -> int:
        """Queues self-manage storage; nothing for a GC to do."""
        return 0

    def drain(self, t: float) -> int:
        """Reclaim all queued storage (tenant departure / teardown).

        Queued items are by construction unreferenced (a pop removes the
        item from the FIFO), so every one frees immediately. Returns the
        number of items freed.
        """
        freed = 0
        while self._fifo:
            item = self._fifo.popleft()
            if item.freed:  # pragma: no cover - defensive
                continue
            self._account_free(item, t)
            freed += 1
        if self.capacity is not None:
            self._putters.notify_all()
        return freed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SQueue {self.name!r} depth={len(self._fifo)} on {self.node.name}>"
