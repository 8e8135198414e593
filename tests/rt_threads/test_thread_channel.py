"""Direct unit tests for ThreadChannel (no executor involved)."""

import threading
import time

import pytest

from repro.aru import BufferAruState
from repro.control import FeedbackEndpoint
from repro.errors import ItemDropped, SimulationError
from repro.metrics import TraceRecorder
from repro.rt_threads import ThreadChannel
from repro.runtime import Item
from repro.vt import EARLIEST, LATEST, ManualClock


def make_channel(aru=None):
    rec = TraceRecorder()
    clock = ManualClock()
    feedback = FeedbackEndpoint(aru) if aru is not None else None
    ch = ThreadChannel("ch", rec, clock, feedback=feedback)
    return ch, rec, clock


def put(ch, conn, ts, size=10):
    return ch.put(conn, Item(ts=ts, size=size, producer=conn.thread))


class TestPutGet:
    def test_put_and_get_latest(self):
        ch, _, _ = make_channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        for ts in range(4):
            put(ch, prod, ts)
        view = ch.get(cons, LATEST)
        assert view.ts == 3
        assert cons.skips == 3

    def test_get_earliest(self):
        ch, _, _ = make_channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        for ts in range(3):
            put(ch, prod, ts)
        assert ch.get(cons, EARLIEST).ts == 0
        assert ch.get(cons, EARLIEST).ts == 1

    def test_exact_get(self):
        ch, _, _ = make_channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        for ts in range(3):
            put(ch, prod, ts)
        assert ch.get(cons, 1).ts == 1
        with pytest.raises(ItemDropped):
            ch.get(cons, 0)

    def test_duplicate_ts_rejected(self):
        ch, _, _ = make_channel()
        prod = ch.register_producer("p")
        put(ch, prod, 5)
        with pytest.raises(SimulationError):
            put(ch, prod, 5)

    def test_try_get(self):
        ch, _, _ = make_channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        assert ch.try_get(cons) is None
        put(ch, prod, 0)
        assert ch.try_get(cons).ts == 0
        assert ch.try_get(cons) is None  # cursor advanced

    def test_timed_get_expires(self):
        ch, _, _ = make_channel()
        ch.register_producer("p")
        cons = ch.register_consumer("c")
        # ManualClock never advances, so rely on wall-based cond timeout:
        # use a real WallClock channel for this case instead.
        from repro.vt import WallClock

        ch2 = ThreadChannel("ch2", TraceRecorder(), WallClock())
        cons2 = ch2.register_consumer("c")
        t0 = time.monotonic()
        assert ch2.get(cons2, LATEST, max_wait=0.1) is None
        assert time.monotonic() - t0 < 1.0

    def test_stop_event_aborts_wait(self):
        from repro.vt import WallClock

        ch = ThreadChannel("ch", TraceRecorder(), WallClock())
        cons = ch.register_consumer("c")
        stop = threading.Event()

        result = {}

        def getter():
            result["view"] = ch.get(cons, LATEST, stop=stop, timeout=0.01)

        t = threading.Thread(target=getter)
        t.start()
        time.sleep(0.05)
        stop.set()
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert result["view"] is None


class TestDgcBehaviour:
    def test_skipped_items_collected(self):
        ch, rec, _ = make_channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        for ts in range(5):
            put(ch, prod, ts)
        view = ch.get(cons, LATEST)
        # skipped 0-3 freed; gotten ts=4 pinned until release
        assert len(ch) == 1
        ch.release(view._item)
        assert len(ch) == 0
        assert ch.total_frees == 5

    def test_two_consumers_wait_for_slowest(self):
        ch, _, _ = make_channel()
        prod = ch.register_producer("p")
        c1 = ch.register_consumer("c1")
        c2 = ch.register_consumer("c2")
        for ts in range(3):
            put(ch, prod, ts)
        v = ch.get(c1, LATEST)
        ch.release(v._item)
        assert len(ch) == 3  # c2 hasn't moved
        v2 = ch.get(c2, LATEST)
        ch.release(v2._item)
        assert len(ch) == 0

    def test_dead_on_arrival(self):
        ch, rec, _ = make_channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        put(ch, prod, 5)
        v = ch.get(cons, LATEST)
        ch.release(v._item)
        late = Item(ts=2, size=10)
        ch.put(prod, late)
        assert len(rec.items[late.item_id].skips) == 1

    def test_bytes_held(self):
        ch, _, _ = make_channel()
        prod = ch.register_producer("p")
        ch.register_consumer("c")
        put(ch, prod, 0, size=100)
        put(ch, prod, 1, size=50)
        assert ch.bytes_held == 150


class TestAru:
    def test_piggyback(self):
        aru = BufferAruState("ch", op="min")
        ch, _, _ = make_channel(aru=aru)
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        assert put(ch, prod, 0) is None
        ch.get(cons, LATEST, consumer_summary=0.3)
        assert put(ch, prod, 1) == 0.3


class TestEviction:
    def test_evicted_consumer_leaves_no_feedback_slot(self):
        # Regression: ``evict_consumer`` dropped the cursor but left the
        # connection's backwardSTP slot behind, so after a reconnect the
        # channel kept advertising the dead connection's 10 ms under
        # ``min`` although its only consumer now ran at 50 ms.
        aru = BufferAruState("ch", op="min")
        ch, _, _ = make_channel(aru=aru)
        prod = ch.register_producer("p")
        old = ch.register_consumer("c")
        put(ch, prod, 0)
        ch.get(old, LATEST, consumer_summary=0.010)
        assert put(ch, prod, 1) == 0.010
        ch.evict_consumer("c")
        new = ch.register_consumer("c")
        ch.get(new, LATEST, consumer_summary=0.050)
        assert put(ch, prod, 2) == 0.050
        assert aru.backward.snapshot() == {new.conn_id: 0.050}

    def test_get_through_an_evicted_cursor_is_rejected(self):
        # A server session still blocked in a poll for the old connection
        # must not re-create the slot the eviction removed.
        aru = BufferAruState("ch", op="min")
        ch, _, _ = make_channel(aru=aru)
        prod = ch.register_producer("p")
        old = ch.register_consumer("c")
        ch.evict_consumer("c")
        put(ch, prod, 0)
        with pytest.raises(SimulationError, match="unregistered"):
            ch.get(old, LATEST, consumer_summary=0.010)
        assert aru.backward.snapshot() == {}


class _GatedLock:
    """A recorder lock one chosen thread can take only once ``gate`` is
    set: it parks that thread exactly between "decided to record" and
    "recording", stretching whatever window ``put`` leaves there."""

    def __init__(self):
        self._lock = threading.Lock()
        self.gated_thread = None
        self.waiting = threading.Event()
        self.gate = threading.Event()

    def __enter__(self):
        if threading.current_thread() is self.gated_thread:
            self.waiting.set()
            assert self.gate.wait(5.0)
        self._lock.acquire()

    def __exit__(self, *exc):
        self._lock.release()


class TestAllocRecordedBeforePublish:
    def test_waiting_consumer_cannot_see_an_unrecorded_item(self):
        # Regression: ``put`` used to publish the item (notify_all under
        # the channel lock) and only then record its allocation under the
        # recorder lock, so a woken consumer could record a get first —
        # ``TraceError: unknown item``. The gate sits on the recorder lock
        # rather than inside ``on_alloc`` because ``on_alloc`` already runs
        # under that lock: a consumer racing it just queues behind it.
        from repro.vt import WallClock

        lock = _GatedLock()
        rec = TraceRecorder()
        ch = ThreadChannel("ch", rec, WallClock(), recorder_lock=lock)
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        item = Item(ts=0, size=10, producer="p")
        result = {}

        def getter():
            try:
                result["view"] = ch.get(cons, LATEST, timeout=0.005)
            except BaseException as exc:  # surfaced by the asserts below
                result["error"] = exc

        consumer = threading.Thread(target=getter)
        producer = threading.Thread(target=ch.put, args=(prod, item))
        lock.gated_thread = producer
        consumer.start()
        producer.start()
        try:
            assert lock.waiting.wait(2.0)
            # The producer is parked just short of ``on_alloc``. The
            # consumer polls every 5 ms; it must keep waiting.
            consumer.join(timeout=0.2)
            assert consumer.is_alive(), f"consumer got ahead of on_alloc: {result}"
            assert item.item_id not in rec.items
        finally:
            lock.gate.set()
            producer.join(timeout=2.0)
            consumer.join(timeout=2.0)
        assert not producer.is_alive() and not consumer.is_alive()
        assert "error" not in result
        assert result["view"].ts == 0
        assert [t.consumer for t in rec.items[item.item_id].gets] == ["c"]
