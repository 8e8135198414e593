"""Stampede channels: timestamped, skipping, multi-consumer buffers.

Semantics (paper §1):

* a put stores an item under its timestamp; storage is unbounded unless a
  ``capacity`` is configured (back-pressure extension);
* a get with :data:`~repro.vt.LATEST` returns the **newest** item whose
  timestamp exceeds the consumer's cursor, *skipping over* anything older
  — "a task may have to drop or skip-over stale data to access the most
  recent data from its input buffers";
* skipped items remain in memory until a garbage collector proves them
  dead — exactly the waste ARU exists to prevent;
* every get/put piggybacks feedback values through the channel's
  :class:`~repro.control.propagation.FeedbackEndpoint` (§3.3.2) — the
  channel transports them without knowing what they mean.

This is the one implementation of those rules; both executors run it.
The transitions (``commit_put``/``commit_get``/``release``/
``maybe_collect``) never wait, read a clock or lock — the caller passes
the time in. The simulated driver blocks on the events
``request_get``/``wait_for_room`` hand out; the real-threads shell
(:class:`~repro.rt_threads.channel.ThreadChannel`) waits on a condition
variable around ``try_match`` instead and passes ``engine=None``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import TYPE_CHECKING, List, Optional, Union

from repro.control.propagation import FeedbackEndpoint
from repro.errors import DuplicateTimestamp, ItemDropped, SimulationError
from repro.obs.hub import NULL_HUB
from repro.runtime.buffer import Buffer
from repro.runtime.connection import InputConnection, OutputConnection
from repro.runtime.item import Item, ItemView
from repro.sim.engine import Engine
from repro.vt.timestamp import EARLIEST, LATEST, Timestamp, _Sentinel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node
    from repro.gc.base import GarbageCollector
    from repro.metrics.recorder import TraceRecorder

Request = Union[_Sentinel, int, Timestamp]


class Channel(Buffer):
    """One named channel placed on a cluster node."""

    kind = "channel"

    def __init__(
        self,
        engine: Optional[Engine],
        name: str,
        node: "Node",
        recorder: "TraceRecorder",
        gc: "GarbageCollector",
        capacity: Optional[int] = None,
        feedback: Optional[FeedbackEndpoint] = None,
        obs=NULL_HUB,
    ) -> None:
        super().__init__(engine, name, node, recorder, capacity, feedback, obs)
        self.gc = gc
        self._items: dict[int, Item] = {}
        self._order: List[int] = []  # sorted timestamps present
        self.total_skips = 0

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def collector(self) -> str:
        return self.gc.name

    @property
    def bytes_held(self) -> int:
        return sum(item.size for item in self._items.values())

    def newest_ts(self) -> Optional[int]:
        return self._order[-1] if self._order else None

    def oldest_ts(self) -> Optional[int]:
        return self._order[0] if self._order else None

    def has_item(self, ts: int) -> bool:
        return int(ts) in self._items

    def items_snapshot(self) -> List[Item]:
        """Items currently stored, oldest first (GC and tests)."""
        return [self._items[ts] for ts in self._order]

    def items_upto(self, ts_inclusive: int) -> List[Item]:
        """Stored items with ``ts <= ts_inclusive``, oldest first (GC use)."""
        idx = bisect_right(self._order, ts_inclusive)
        return [self._items[ts] for ts in self._order[:idx]]

    # -- put side ----------------------------------------------------------
    def commit_put(self, conn: OutputConnection, item: Item, t: float) -> Optional[float]:
        """Insert ``item``; returns the channel's summary-STP (ARU feedback).

        The caller must have established room (``has_room``). Duplicate
        timestamps are rejected — Stampede channel items are keyed by
        timestamp.
        """
        if not self.has_room():
            raise SimulationError(f"commit_put on full channel {self.name!r}")
        if item.ts in self._items:
            raise DuplicateTimestamp(
                f"channel {self.name!r}: duplicate timestamp {item.ts}"
            )
        self._items[item.ts] = item
        insort(self._order, item.ts)
        self._account_put(item, t)
        # Dead on arrival for consumers whose cursor already passed this ts.
        for in_conn in self.in_conns:
            if in_conn.last_got >= item.ts:
                in_conn.skips += 1
                self.total_skips += 1
                self.recorder.on_skip(item.item_id, in_conn.conn_id, in_conn.thread, t)
        self.gc.on_put(self, item)
        if self._gc_due:
            self.maybe_collect(t)
        self._notify_getters()
        return self.feedback.advertise() if self.feedback is not None else None

    # -- get side ----------------------------------------------------------
    def _match(self, conn: InputConnection, request: Request) -> Optional[Item]:
        """The item a get would return right now, or None."""
        if not self._order:
            return None
        if request is LATEST:
            ts = self._order[-1]
            return self._items[ts] if ts > conn.last_got else None
        if request is EARLIEST:
            idx = bisect_right(self._order, conn.last_got)
            if idx >= len(self._order):
                return None
            return self._items[self._order[idx]]
        ts = int(request)
        if ts <= conn.last_got:
            raise ItemDropped(
                f"{conn.thread!r} re-requested ts {ts} <= cursor {conn.last_got} "
                f"on channel {self.name!r}"
            )
        return self._items.get(ts)

    def commit_get(
        self,
        conn: InputConnection,
        request: Request,
        t: float,
        consumer_summary: Optional[float] = None,
    ) -> ItemView:
        """Apply get side effects; returns the consumer's view of the item.

        Marks every stored item between the old cursor and the returned
        timestamp as skipped for this connection, advances the cursor,
        takes a reference, feeds the consumer's summary-STP into the
        channel's backwardSTP vector, and lets the GC run if a pass is due.
        """
        item = self._match(conn, request)
        if item is None:
            raise SimulationError(
                f"commit_get with no matching item on {self.name!r} "
                f"(cursor={conn.last_got}, request={request!r})"
            )
        # Skip-marking: present items the cursor jumps over.
        lo = bisect_right(self._order, conn.last_got)
        hi = bisect_left(self._order, item.ts)
        for ts in self._order[lo:hi]:
            skipped = self._items[ts]
            conn.skips += 1
            self.total_skips += 1
            self.recorder.on_skip(skipped.item_id, conn.conn_id, conn.thread, t)
        self._cursor_from = conn.last_got
        conn.last_got = item.ts
        conn.gets += 1
        self.total_gets += 1
        item.acquire()
        self.recorder.on_get(item.item_id, conn.conn_id, conn.thread, t)
        if self.obs.spans_on:
            self.obs.span_get(item, conn.thread, t)
        if self.feedback is not None and consumer_summary is not None:
            self.feedback.receive(conn.conn_id, consumer_summary)
        self.gc.on_get(self, conn, item)
        if self._gc_due:
            self.maybe_collect(t)
        return ItemView(item, self.name)

    def release(self, item: Item, t: float) -> None:
        """Consumer finished with ``item`` (end of iteration)."""
        item.release()
        if item.doomed and item.refcount == 0:
            self._free(item, t)

    # -- garbage collection --------------------------------------------------
    def maybe_collect(self, t: float) -> int:
        """Ask the GC for dead items; free the unreferenced ones.

        Referenced dead items are marked doomed and freed at release.
        Returns the number of items freed now.
        """
        freed = 0
        for item in self.gc.dead_items(self):
            if item.freed:
                continue
            if item.refcount == 0:
                self._free(item, t)
                freed += 1
            else:
                item.doomed = True
        return freed

    def drain(self, t: float) -> int:
        """Reclaim all storage (tenant departure / teardown).

        Frees every unreferenced item immediately and dooms the rest so
        they free when their last consumer releases them. Returns the
        number of items freed now.
        """
        freed = 0
        for item in self.items_snapshot():
            if item.freed:
                continue
            if item.refcount == 0:
                self._free(item, t)
                freed += 1
            else:
                item.doomed = True
        return freed

    def _free(self, item: Item, t: float) -> None:
        if item.freed:  # pragma: no cover - defensive
            raise SimulationError(f"double free of {item!r} in {self.name!r}")
        stored = self._items.pop(item.ts, None)
        if stored is not item:
            raise SimulationError(
                f"channel {self.name!r}: freeing item not stored under ts {item.ts}"
            )
        idx = bisect_left(self._order, item.ts)
        del self._order[idx]
        self._account_free(item, t)
        if self.capacity is not None:
            self._putters.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Channel {self.name!r} items={len(self._items)} "
            f"bytes={self.bytes_held} on {self.node.name}>"
        )
