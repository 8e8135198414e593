"""Tests for Channel: put/get semantics, skipping, blocking, ARU, capacity."""

import pytest

from repro.aru import BackwardStpVector
from repro.errors import ItemDropped, SimulationError
from repro.runtime import Item
from repro.vt import EARLIEST, LATEST


def put(ch, conn, ts, size=100, t=None, payload=None):
    item = Item(ts=ts, size=size, payload=payload, producer=conn.thread)
    return ch.commit_put(conn, item, t=t if t is not None else ch.engine.now)


class TestPut:
    def test_put_stores_item(self, harness):
        ch = harness.channel()
        prod = ch.register_producer("p")
        put(ch, prod, ts=0)
        assert len(ch) == 1
        assert ch.has_item(0)
        assert ch.bytes_held == 100

    def test_put_accounts_node_memory(self, harness):
        ch = harness.channel()
        prod = ch.register_producer("p")
        put(ch, prod, ts=0, size=500)
        assert harness.node.mem_in_use == 500

    def test_duplicate_timestamp_rejected(self, harness):
        ch = harness.channel()
        prod = ch.register_producer("p")
        put(ch, prod, ts=5)
        with pytest.raises(SimulationError, match="duplicate"):
            put(ch, prod, ts=5)

    def test_out_of_order_puts_kept_sorted(self, harness_null_gc):
        ch = harness_null_gc.channel()
        prod = ch.register_producer("p")
        for ts in (5, 2, 9, 3):
            put(ch, prod, ts=ts)
        assert ch.oldest_ts() == 2
        assert ch.newest_ts() == 9

    def test_put_counters(self, harness):
        ch = harness.channel()
        prod = ch.register_producer("p")
        put(ch, prod, ts=0)
        put(ch, prod, ts=1)
        assert ch.total_puts == 2


class TestGetLatest:
    def test_get_latest_returns_newest(self, harness_null_gc):
        ch = harness_null_gc.channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        for ts in range(5):
            put(ch, prod, ts=ts)
        view = ch.commit_get(cons, LATEST, t=0.0)
        assert view.ts == 4

    def test_cursor_advances(self, harness_null_gc):
        ch = harness_null_gc.channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        put(ch, prod, ts=0)
        ch.commit_get(cons, LATEST, t=0.0)
        assert cons.last_got == 0
        assert not ch.try_match(cons, LATEST)  # nothing newer yet
        put(ch, prod, ts=1)
        assert ch.try_match(cons, LATEST)

    def test_skipped_items_marked(self, harness_null_gc):
        h = harness_null_gc
        ch = h.channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        ids = {}
        for ts in range(4):
            item = Item(ts=ts, size=10)
            ids[ts] = item.item_id
            ch.commit_put(prod, item, t=0.0)
        view = ch.commit_get(cons, LATEST, t=1.0)
        assert view.ts == 3
        assert cons.skips == 3
        for ts in range(3):
            assert len(h.recorder.items[ids[ts]].skips) == 1
        assert not h.recorder.items[ids[3]].skips

    def test_dead_on_arrival_marked_skipped(self, harness_null_gc):
        h = harness_null_gc
        ch = h.channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        put(ch, prod, ts=5)
        ch.commit_get(cons, LATEST, t=0.0)  # cursor -> 5
        late = Item(ts=2, size=10)
        ch.commit_put(prod, late, t=1.0)  # arrives after cursor passed
        assert len(h.recorder.items[late.item_id].skips) == 1

    def test_two_consumers_independent_cursors(self, harness_null_gc):
        ch = harness_null_gc.channel()
        prod = ch.register_producer("p")
        c1 = ch.register_consumer("c1")
        c2 = ch.register_consumer("c2")
        put(ch, prod, ts=0)
        put(ch, prod, ts=1)
        v1 = ch.commit_get(c1, LATEST, t=0.0)
        assert v1.ts == 1
        assert c2.last_got == -1
        v2 = ch.commit_get(c2, LATEST, t=0.0)
        assert v2.ts == 1

    def test_get_acquires_reference(self, harness_null_gc):
        ch = harness_null_gc.channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        item = Item(ts=0, size=10)
        ch.commit_put(prod, item, t=0.0)
        ch.commit_get(cons, LATEST, t=0.0)
        assert item.refcount == 1


class TestGetVariants:
    def test_get_earliest(self, harness_null_gc):
        ch = harness_null_gc.channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        for ts in range(3):
            put(ch, prod, ts=ts)
        assert ch.commit_get(cons, EARLIEST, t=0.0).ts == 0
        assert ch.commit_get(cons, EARLIEST, t=0.0).ts == 1

    def test_get_exact_ts(self, harness_null_gc):
        ch = harness_null_gc.channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        for ts in range(4):
            put(ch, prod, ts=ts)
        assert ch.commit_get(cons, 2, t=0.0).ts == 2

    def test_exact_below_cursor_raises(self, harness_null_gc):
        ch = harness_null_gc.channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        for ts in range(4):
            put(ch, prod, ts=ts)
        ch.commit_get(cons, LATEST, t=0.0)
        with pytest.raises(ItemDropped):
            ch.try_match(cons, 1)

    def test_commit_without_match_raises(self, harness):
        ch = harness.channel()
        ch.register_producer("p")
        cons = ch.register_consumer("c")
        with pytest.raises(SimulationError, match="no matching item"):
            ch.commit_get(cons, LATEST, t=0.0)

    def test_unregistered_consumer_rejected(self, harness):
        ch = harness.channel()
        other = harness.channel("other")
        foreign = other.register_consumer("x")
        with pytest.raises(SimulationError, match="unregistered"):
            ch.request_get(foreign, LATEST)


class TestBlockingGet:
    def test_get_blocks_until_put(self, harness):
        h = harness
        ch = h.channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        got = []

        def getter(eng):
            ev = ch.request_get(cons, LATEST)
            assert not ev.triggered
            yield ev
            view = ch.commit_get(cons, LATEST, t=eng.now)
            got.append((eng.now, view.ts))

        def putter(eng):
            yield eng.timeout(2.0)
            put(ch, prod, ts=7, t=eng.now)

        h.engine.process(getter(h.engine))
        h.engine.process(putter(h.engine))
        h.engine.run()
        assert got == [(2.0, 7)]

    def test_request_get_immediate_when_available(self, harness_null_gc):
        h = harness_null_gc
        ch = h.channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        put(ch, prod, ts=0)
        ev = ch.request_get(cons, LATEST)
        assert ev.triggered

    def test_multiple_blocked_consumers_all_wake(self, harness_null_gc):
        h = harness_null_gc
        ch = h.channel()
        prod = ch.register_producer("p")
        conns = [ch.register_consumer(f"c{i}") for i in range(3)]
        woken = []

        def getter(eng, conn):
            yield ch.request_get(conn, LATEST)
            view = ch.commit_get(conn, LATEST, t=eng.now)
            woken.append((conn.thread, view.ts))

        for conn in conns:
            h.engine.process(getter(h.engine, conn))

        def putter(eng):
            yield eng.timeout(1.0)
            put(ch, prod, ts=3, t=eng.now)

        h.engine.process(putter(h.engine))
        h.engine.run()
        assert sorted(woken) == [("c0", 3), ("c1", 3), ("c2", 3)]


class TestAruPiggyback:
    def test_put_returns_channel_summary(self, harness):
        aru = BackwardStpVector("min")
        ch = harness.channel(aru=aru)
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        assert put(ch, prod, ts=0) is None  # no consumer feedback yet
        ch.commit_get(cons, LATEST, t=0.0, consumer_summary=0.25)
        assert put(ch, prod, ts=1) == 0.25

    def test_channel_compresses_multiple_consumers(self, harness_null_gc):
        aru = BackwardStpVector("min")
        ch = harness_null_gc.channel(aru=aru)
        prod = ch.register_producer("p")
        c1 = ch.register_consumer("c1")
        c2 = ch.register_consumer("c2")
        put(ch, prod, ts=0)
        ch.commit_get(c1, LATEST, t=0.0, consumer_summary=0.5)
        ch.commit_get(c2, LATEST, t=0.0, consumer_summary=0.2)
        assert put(ch, prod, ts=1) == 0.2

    def test_max_operator_channel(self, harness_null_gc):
        aru = BackwardStpVector("max")
        ch = harness_null_gc.channel(aru=aru)
        prod = ch.register_producer("p")
        c1 = ch.register_consumer("c1")
        c2 = ch.register_consumer("c2")
        put(ch, prod, ts=0)
        ch.commit_get(c1, LATEST, t=0.0, consumer_summary=0.5)
        ch.commit_get(c2, LATEST, t=0.0, consumer_summary=0.2)
        assert put(ch, prod, ts=1) == 0.5

    def test_no_aru_state_returns_none(self, harness):
        ch = harness.channel(aru=None)
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        put(ch, prod, ts=0)
        ch.commit_get(cons, LATEST, t=0.0, consumer_summary=0.25)
        assert put(ch, prod, ts=1) is None


class TestCapacity:
    def test_has_room_unbounded(self, harness):
        assert harness.channel().has_room()

    def test_capacity_bound(self, harness_null_gc):
        ch = harness_null_gc.channel(capacity=2)
        prod = ch.register_producer("p")
        put(ch, prod, ts=0)
        put(ch, prod, ts=1)
        assert not ch.has_room()
        with pytest.raises(SimulationError, match="full"):
            put(ch, prod, ts=2)

    def test_room_reopens_after_free(self, harness):
        h = harness  # dgc
        ch = h.channel(capacity=2)
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        put(ch, prod, ts=0)
        put(ch, prod, ts=1)
        assert not ch.has_room()
        # consuming latest makes ts=0 dead (skipped) and ts<=1 collectible
        view = ch.commit_get(cons, LATEST, t=0.0)
        assert view.ts == 1
        # ts=0 freed immediately (unreferenced); ts=1 held by consumer
        assert ch.has_room()

    def test_wait_for_room_event(self, harness_null_gc):
        h = harness_null_gc
        ch = h.channel(capacity=1)
        prod = ch.register_producer("p")
        ev = ch.wait_for_room()
        assert ev.triggered  # room available now
        put(ch, prod, ts=0)
        ev2 = ch.wait_for_room()
        assert not ev2.triggered


class TestDrain:
    def test_drain_frees_unreferenced_items(self, harness_null_gc):
        h = harness_null_gc
        ch = h.channel()
        prod = ch.register_producer("p")
        for ts in range(4):
            put(ch, prod, ts=ts, size=100)
        assert h.node.mem_in_use == 400
        freed = ch.drain(t=1.0)
        assert freed == 4
        assert len(ch) == 0
        assert ch.bytes_held == 0
        assert h.node.mem_in_use == 0

    def test_drain_dooms_held_items(self, harness_null_gc):
        h = harness_null_gc
        ch = h.channel()
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        put(ch, prod, ts=0, size=100)
        view = ch.commit_get(cons, LATEST, t=0.0)
        freed = ch.drain(t=1.0)
        assert freed == 0  # the consumer still references it
        assert h.node.mem_in_use == 100
        ch.release(view._item, t=2.0)  # last reference drops -> freed
        assert h.node.mem_in_use == 0

    def test_drain_is_idempotent(self, harness_null_gc):
        ch = harness_null_gc.channel()
        prod = ch.register_producer("p")
        put(ch, prod, ts=0)
        assert ch.drain(t=1.0) == 1
        assert ch.drain(t=2.0) == 0
