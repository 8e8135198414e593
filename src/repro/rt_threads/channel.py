"""Thread-safe Stampede channel for the real-threads executor.

Same semantics as the simulated :class:`repro.runtime.channel.Channel`
(get-latest with skipping, per-consumer cursors, dead-timestamp
collection, ARU piggybacking) over ``threading`` primitives instead of DES
events. The dead-timestamp GC is built in — the paper's experiments always
run on DGC, and a live executor without collection would leak unboundedly.

Blocking gets honor a stop event so the runtime can shut down promptly.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional

from repro.aru.summary import BufferAruState
from repro.errors import ItemDropped, SimulationError
from repro.runtime.connection import InputConnection, OutputConnection
from repro.runtime.item import Item, ItemView
from repro.vt.timestamp import EARLIEST, LATEST


class ThreadChannel:
    """One channel shared by real producer/consumer threads."""

    kind = "channel"

    def __init__(
        self,
        name: str,
        recorder,
        clock,
        aru_state: Optional[BufferAruState] = None,
        recorder_lock: Optional[threading.Lock] = None,
        node: str = "local",
    ) -> None:
        self.name = name
        self.recorder = recorder
        self.clock = clock
        self.node = node
        self.aru = aru_state
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._rec_lock = recorder_lock or threading.Lock()
        self._items: Dict[int, Item] = {}
        self._order: List[int] = []
        self.in_conns: List[InputConnection] = []
        self.out_conns: List[OutputConnection] = []
        self.total_puts = 0
        self.total_gets = 0
        self.total_skips = 0
        self.total_frees = 0

    # -- registration ------------------------------------------------------
    def register_producer(self, thread: str) -> OutputConnection:
        conn = OutputConnection(thread=thread, buffer=self.name)
        self.out_conns.append(conn)
        return conn

    def register_consumer(self, thread: str) -> InputConnection:
        conn = InputConnection(buffer=self.name, thread=thread)
        self.in_conns.append(conn)
        return conn

    def evict_consumer(self, thread: str) -> None:
        """Drop ``thread``'s consumer cursors (a reconnecting remote peer
        re-registers; its dead cursor must not freeze the DGC threshold)."""
        with self._lock:
            self.in_conns = [c for c in self.in_conns if c.thread != thread]

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def bytes_held(self) -> int:
        with self._lock:
            return sum(i.size for i in self._items.values())

    # -- put ---------------------------------------------------------------
    def put(self, conn: OutputConnection, item: Item) -> Optional[float]:
        """Insert an item; returns the channel summary-STP (ARU feedback)."""
        t = self.clock.now()
        with self._lock:
            if item.ts in self._items:
                raise SimulationError(
                    f"channel {self.name!r}: duplicate timestamp {item.ts}"
                )
            # The trace must know the item before any consumer can see
            # it: a woken getter records its get under ``_rec_lock``, so
            # the alloc goes first, inside the critical section that
            # publishes. Lock order ``_lock`` -> ``_rec_lock`` is safe:
            # no ``_rec_lock`` section ever takes ``_lock``.
            with self._rec_lock:
                self.recorder.on_alloc(
                    item_id=item.item_id,
                    channel=self.name,
                    node=self.node,
                    ts=item.ts,
                    size=item.size,
                    producer=item.producer,
                    parents=item.parents,
                    t=t,
                )
                for c in self.in_conns:
                    if c.last_got >= item.ts:  # dead on arrival
                        c.skips += 1
                        self.total_skips += 1
                        self.recorder.on_skip(
                            item.item_id, c.conn_id, c.thread, t)
            self._items[item.ts] = item
            insort(self._order, item.ts)
            self.total_puts += 1
            conn.puts += 1
            summary = self.aru.summary() if self.aru is not None else None
            self._cond.notify_all()
        self._collect()
        return summary

    # -- get ---------------------------------------------------------------
    def _match_locked(self, conn: InputConnection, request) -> Optional[Item]:
        if not self._order:
            return None
        if request is LATEST:
            ts = self._order[-1]
            return self._items[ts] if ts > conn.last_got else None
        if request is EARLIEST:
            idx = bisect_right(self._order, conn.last_got)
            return self._items[self._order[idx]] if idx < len(self._order) else None
        ts = int(request)
        if ts <= conn.last_got:
            raise ItemDropped(
                f"{conn.thread!r} re-requested ts {ts} on {self.name!r}"
            )
        return self._items.get(ts)

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
        deadline = None if max_wait is None else self.clock.now() + max_wait
        with self._cond:
            while True:
                item = self._match_locked(conn, request)
                if item is not None:
                    break
                if stop is not None and stop.is_set():
                    return None
                if deadline is not None and self.clock.now() >= deadline:
                    return None
                wait_for = timeout
                if deadline is not None:
                    wait_for = min(wait_for, max(0.0, deadline - self.clock.now()))
                self._cond.wait(timeout=wait_for)
            # skip marking
            lo = bisect_right(self._order, conn.last_got)
            hi = bisect_left(self._order, item.ts)
            skipped = [self._items[ts] for ts in self._order[lo:hi]]
            conn.last_got = item.ts
            conn.gets += 1
            self.total_gets += 1
            self.total_skips += len(skipped)
            conn.skips += len(skipped)
            item.acquire()
            if self.aru is not None and consumer_summary is not None:
                self.aru.update_backward(conn.conn_id, consumer_summary)
        t = self.clock.now()
        with self._rec_lock:
            for s in skipped:
                self.recorder.on_skip(s.item_id, conn.conn_id, conn.thread, t)
            self.recorder.on_get(item.item_id, conn.conn_id, conn.thread, t)
        self._collect()
        return ItemView(item, self.name)

    def try_get(self, conn: InputConnection, request=LATEST,
                consumer_summary: Optional[float] = None) -> Optional[ItemView]:
        """Non-blocking variant; None when nothing matches."""
        with self._lock:
            if self._match_locked(conn, request) is None:
                return None
        return self.get(conn, request, consumer_summary)

    def check_dead(self, ts: int) -> bool:
        """True when every consumer's cursor has passed ``ts``."""
        with self._lock:
            if not self.in_conns:
                return False
            return all(c.last_got >= int(ts) for c in self.in_conns)

    def release(self, item: Item) -> None:
        """Consumer done with the item (end of iteration)."""
        freed = False
        with self._lock:
            item.release()
            if item.doomed and item.refcount == 0 and not item.freed:
                self._free_locked(item)
                freed = True
        if freed:
            self._record_free(item)

    # -- dead-timestamp collection ---------------------------------------------
    def _collect(self) -> None:
        """DGC: free items every consumer's cursor has passed."""
        freed: List[Item] = []
        with self._lock:
            if not self.in_conns:
                return
            threshold = min(c.last_got for c in self.in_conns)
            if threshold < 0:
                return
            idx = bisect_right(self._order, threshold)
            for ts in list(self._order[:idx]):
                item = self._items[ts]
                if item.refcount == 0:
                    self._free_locked(item)
                    freed.append(item)
                else:
                    item.doomed = True
        for item in freed:
            self._record_free(item)

    def _free_locked(self, item: Item) -> None:
        del self._items[item.ts]
        self._order.remove(item.ts)
        item.freed = True
        self.total_frees += 1

    def _record_free(self, item: Item) -> None:
        with self._rec_lock:
            self.recorder.on_free(item.item_id, self.clock.now())
