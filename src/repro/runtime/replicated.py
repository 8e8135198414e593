"""Replicated stages: the partition/merge buffer pair behind a worker pool.

The paper's ARU loop only modulates the *period* of a fixed set of
threads; it cannot add capacity when a stage saturates. A *replicated
stage* runs N copies of one worker body behind two special buffers:

* a :class:`PartitionQueue` on the input side — a destructive-read
  queue that assigns every admitted item to exactly one worker *slot*
  (round-robin or hash-by-timestamp), so siblings never race for the
  same item and the item→worker mapping is a pure function of the
  put/registration history (deterministic at fixed N);
* a :class:`MergeChannel` on the output side — a Stampede channel that
  additionally *sequences* results: an item's result becomes visible to
  consumers only once every earlier admitted timestamp has either been
  merged or abandoned (worker crash/retirement). Downstream threads
  therefore observe a ts-ordered stream regardless of which worker
  finished first, which is what keeps metrics and determinism
  fingerprints stable while workers complete out of order.

Spawning and retiring workers reuses the restart machinery of
:meth:`repro.runtime.runtime.Runtime.restart_thread`: a fresh generator,
newly registered connections, and cold ARU state. Retiring a slot
reassigns its pending items to the surviving workers and *abandons* its
in-flight timestamps so the merge frontier cannot wedge on a result
that will never arrive (at-most-once processing under failures).

Neither buffer adds engine events beyond what :class:`~repro.runtime
.squeue.SQueue`/:class:`~repro.runtime.channel.Channel` already
schedule, so a single-replica stage with no scale controller is
event-for-event identical to a plain queue→worker→channel pipeline
(asserted by ``tests/bench/test_elastic_differential.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import ItemDropped, SimulationError
from repro.runtime.channel import Channel
from repro.runtime.connection import InputConnection, OutputConnection
from repro.runtime.item import Item
from repro.runtime.squeue import SQueue
from repro.vt.timestamp import EARLIEST, LATEST

PARTITION_KINDS = ("round-robin", "hash")

#: Knuth's multiplicative constant — spreads consecutive timestamps
#: across slots without the modulo-striping a bare ``ts % n`` gives.
_HASH_MIX = 2654435761


class RoundRobinPartitioner:
    """Assign items to worker slots in rotation.

    The rotation counter advances per *assignment* (including
    reassignment after a slot retires), so the mapping is a pure
    function of the assignment history — independent of simulated time
    and of which worker happens to be idle.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def slot(self, ts: int, n_slots: int) -> int:
        s = self._next % n_slots
        self._next += 1
        return s


class HashPartitioner:
    """Assign items to slots by hashed timestamp (sticky per key).

    Items with the same timestamp always land on the same slot for a
    given pool size — the classic key-affinity partitioner.
    """

    name = "hash"

    def slot(self, ts: int, n_slots: int) -> int:
        return ((ts * _HASH_MIX) >> 7) % n_slots


def make_partitioner(kind: str):
    if kind == "round-robin":
        return RoundRobinPartitioner()
    if kind == "hash":
        return HashPartitioner()
    raise SimulationError(
        f"unknown partition kind {kind!r}; expected one of {PARTITION_KINDS}"
    )


class PartitionQueue(SQueue):
    """A work queue that routes each item to exactly one worker slot.

    Every registered consumer connection is one *slot* with a private
    FIFO. ``commit_put`` assigns the item to a slot through the
    partitioner; ``request_get``/``commit_get`` only ever see the
    calling connection's FIFO, so two replicas never contend for an
    item (unlike a plain :class:`SQueue`, where the pop is
    first-woken-wins).

    Retiring a slot (``unregister_consumer``) reassigns its pending
    items to the remaining slots and abandons its in-flight timestamps
    on the bound :class:`MergeChannel`. If the *last* slot retires,
    pending items park in an orphan FIFO and flush to the next
    registered consumer — a stage is never allowed to silently drop
    queued work during a restart.
    """

    def __init__(self, *args, partition: str = "round-robin", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.partition_kind = partition
        self._partitioner = make_partitioner(partition)
        #: conn_id -> that slot's private FIFO.
        self._pending: Dict[int, Deque[Item]] = {}
        #: ts -> conn_id of the worker currently processing it.
        self._inflight: Dict[int, int] = {}
        #: Items put while no consumer was registered (restart window).
        self._orphans: Deque[Item] = deque()
        self._merge: Optional["MergeChannel"] = None

    # -- stage pairing ----------------------------------------------------
    def bind_merge(self, merge: "MergeChannel") -> None:
        """Pair this queue with its stage's output merge channel."""
        self._merge = merge
        merge.bind_partition(self)

    def on_merged(self, ts: int) -> None:
        """The merge channel saw the result for ``ts`` — no longer in flight."""
        self._inflight.pop(ts, None)

    # -- registration ------------------------------------------------------
    def register_consumer(self, thread: str) -> InputConnection:
        conn = super().register_consumer(thread)
        self._pending[conn.conn_id] = deque()
        if self._orphans:
            orphans, self._orphans = self._orphans, deque()
            for item in orphans:
                self._assign(item)
            self._notify_getters()
        return conn

    def unregister_consumer(self, conn: InputConnection) -> None:
        pending = self._pending.pop(conn.conn_id, None)
        super().unregister_consumer(conn)
        # Abandon this worker's in-flight timestamps: their results will
        # never be put, so the merge frontier must stop waiting for them.
        for ts in [t for t, c in self._inflight.items() if c == conn.conn_id]:
            del self._inflight[ts]
            if self._merge is not None:
                self._merge.abandon(ts)
        # Reassign queued (unstarted) work to the surviving slots.
        if pending:
            if self.in_conns:
                for item in pending:
                    self._assign(item)
                self._notify_getters()
            else:
                self._orphans.extend(pending)

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(q) for q in self._pending.values()) + len(self._orphans)

    @property
    def bytes_held(self) -> int:
        total = sum(i.size for q in self._pending.values() for i in q)
        return total + sum(i.size for i in self._orphans)

    def pending_of(self, conn: InputConnection) -> int:
        """Items currently queued on one slot (diagnostics/tests)."""
        return len(self._pending.get(conn.conn_id, ()))

    @property
    def inflight(self) -> Dict[int, int]:
        """ts -> conn_id snapshot of items being processed (read-only use)."""
        return dict(self._inflight)

    # -- put side ----------------------------------------------------------
    def _assign(self, item: Item) -> None:
        if not self.in_conns:
            self._orphans.append(item)
            return
        idx = self._partitioner.slot(item.ts, len(self.in_conns))
        self._pending[self.in_conns[idx].conn_id].append(item)

    def commit_put(self, conn: OutputConnection, item: Item, t: float) -> Optional[float]:
        """Admit ``item``: route it to a slot and expect its result."""
        if not self.has_room():
            raise SimulationError(f"commit_put on full queue {self.name!r}")
        self._assign(item)
        self.put_bytes += item.size
        self._account_put(item, t)
        if self._merge is not None:
            self._merge.expect(item.ts)
        self._notify_getters()
        return self.feedback.advertise() if self.feedback is not None else None

    # -- get side ----------------------------------------------------------
    def _match(self, conn: InputConnection, request: object) -> Optional[Item]:
        """The head of ``conn``'s own slot."""
        pending = self._pending.get(conn.conn_id)
        return pending[0] if pending else None

    def _pop(self, conn: InputConnection) -> Item:
        """Pop the head of this slot's FIFO and mark its ts in flight."""
        pending = self._pending.get(conn.conn_id)
        if not pending:
            raise SimulationError(
                f"commit_get on empty slot of {self.name!r} "
                f"(worker {conn.thread!r})"
            )
        item = pending.popleft()
        self._inflight[item.ts] = conn.conn_id
        return item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PartitionQueue {self.name!r} depth={len(self)} "
            f"slots={len(self.in_conns)} inflight={len(self._inflight)}>"
        )


class MergeChannel(Channel):
    """A Stampede channel that sequences a worker pool's results.

    The paired :class:`PartitionQueue` calls :meth:`expect` when a job
    is admitted; the timestamp stays *outstanding* until its result is
    put here (or the processing worker dies and the ts is abandoned).
    Consumers only see items strictly below the outstanding frontier —
    ``min(outstanding)`` — so an early finisher cannot overtake a
    still-running sibling in the downstream view. At fixed N this makes
    the consumed sequence (and hence every derived metric) independent
    of worker completion interleavings.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Timestamps admitted upstream whose results are still pending.
        self._outstanding: set = set()
        self._partition: Optional[PartitionQueue] = None

    # -- stage pairing ----------------------------------------------------
    def bind_partition(self, partition: PartitionQueue) -> None:
        self._partition = partition

    def expect(self, ts: int) -> None:
        """A job with ``ts`` was admitted upstream; gate its successors."""
        self._outstanding.add(int(ts))

    def abandon(self, ts: int) -> None:
        """The worker processing ``ts`` died/retired: unblock the frontier."""
        ts = int(ts)
        if ts in self._outstanding:
            self._outstanding.discard(ts)
            # Items above the old frontier may have just become visible.
            self._notify_getters()

    @property
    def frontier(self) -> Optional[int]:
        """Smallest outstanding ts (results at/after it are hidden)."""
        return min(self._outstanding) if self._outstanding else None

    @property
    def outstanding(self) -> int:
        """Number of admitted-but-unmerged timestamps (diagnostics)."""
        return len(self._outstanding)

    # -- put side ----------------------------------------------------------
    def commit_put(self, conn: OutputConnection, item: Item, t: float) -> Optional[float]:
        feedback = super().commit_put(conn, item, t)
        ts = item.ts
        if ts in self._outstanding:
            self._outstanding.discard(ts)
            if self._partition is not None:
                self._partition.on_merged(ts)
            # The frontier moved: re-check waiters, items at or above
            # the put ts may now be visible.
            self._notify_getters()
        return feedback

    # -- get side ----------------------------------------------------------
    def _visible_order(self):
        """The sorted visible timestamps (strictly below the frontier)."""
        if not self._outstanding:
            return self._order
        return self._order[: bisect_left(self._order, min(self._outstanding))]

    def _match(self, conn: InputConnection, request) -> Optional[Item]:
        order = self._visible_order()
        if not order:
            return None
        if request is LATEST:
            ts = order[-1]
            return self._items[ts] if ts > conn.last_got else None
        if request is EARLIEST:
            idx = bisect_right(order, conn.last_got)
            if idx >= len(order):
                return None
            return self._items[order[idx]]
        ts = int(request)
        if ts <= conn.last_got:
            raise ItemDropped(
                f"{conn.thread!r} re-requested ts {ts} <= cursor {conn.last_got} "
                f"on channel {self.name!r}"
            )
        if self._outstanding and ts >= min(self._outstanding):
            return None
        return self._items.get(ts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MergeChannel {self.name!r} items={len(self._items)} "
            f"outstanding={len(self._outstanding)}>"
        )
