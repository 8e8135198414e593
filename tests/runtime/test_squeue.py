"""Tests for SQueue: FIFO destructive reads, self-managed storage."""

import pytest

from repro.aru import BackwardStpVector
from repro.errors import SimulationError
from repro.runtime import Item


def put(q, conn, ts, size=50):
    return q.commit_put(conn, Item(ts=ts, size=size, producer=conn.thread), t=q.engine.now)


class TestFifo:
    def test_items_pop_in_arrival_order(self, harness):
        q = harness.squeue()
        prod = q.register_producer("p")
        cons = q.register_consumer("c")
        for ts in (3, 1, 2):  # arrival order, not timestamp order
            put(q, prod, ts=ts)
        got = [q.commit_get(cons, None, t=0.0).ts for _ in range(3)]
        assert got == [3, 1, 2]

    def test_get_removes_item(self, harness):
        q = harness.squeue()
        prod = q.register_producer("p")
        cons = q.register_consumer("c")
        put(q, prod, ts=0)
        assert len(q) == 1
        q.commit_get(cons, None, t=0.0)
        assert len(q) == 0

    def test_empty_get_raises(self, harness):
        q = harness.squeue()
        cons = q.register_consumer("c")
        with pytest.raises(SimulationError, match="empty"):
            q.commit_get(cons, None, t=0.0)

    def test_release_frees_memory(self, harness):
        h = harness
        q = h.squeue()
        prod = q.register_producer("p")
        cons = q.register_consumer("c")
        put(q, prod, ts=0, size=500)
        assert h.node.mem_in_use == 500
        view = q.commit_get(cons, None, t=0.0)
        assert h.node.mem_in_use == 500  # still held by consumer
        q.release(view._item, t=1.0)
        assert h.node.mem_in_use == 0
        assert h.recorder.items[view.item_id].t_free == 1.0

    def test_two_consumers_each_item_delivered_once(self, harness):
        q = harness.squeue()
        prod = q.register_producer("p")
        c1 = q.register_consumer("c1")
        c2 = q.register_consumer("c2")
        for ts in range(4):
            put(q, prod, ts=ts)
        got = [q.commit_get(c, None, t=0.0).ts for c in (c1, c2, c1, c2)]
        assert got == [0, 1, 2, 3]


class TestBlocking:
    def test_get_blocks_until_put(self, harness):
        h = harness
        q = h.squeue()
        prod = q.register_producer("p")
        cons = q.register_consumer("c")
        got = []

        def getter(eng):
            yield q.request_get(cons)
            got.append((eng.now, q.commit_get(cons, None, t=eng.now).ts))

        def putter(eng):
            yield eng.timeout(1.5)
            put(q, prod, ts=9)

        h.engine.process(getter(h.engine))
        h.engine.process(putter(h.engine))
        h.engine.run()
        assert got == [(1.5, 9)]

    def test_unregistered_consumer_rejected(self, harness):
        q = harness.squeue()
        other = harness.squeue("other")
        foreign = other.register_consumer("x")
        with pytest.raises(SimulationError, match="unregistered"):
            q.request_get(foreign)


class TestCapacityAndAru:
    def test_capacity(self, harness):
        q = harness.squeue(capacity=1)
        prod = q.register_producer("p")
        put(q, prod, ts=0)
        assert not q.has_room()
        with pytest.raises(SimulationError, match="full"):
            put(q, prod, ts=1)

    def test_room_reopens_on_get(self, harness):
        q = harness.squeue(capacity=1)
        prod = q.register_producer("p")
        cons = q.register_consumer("c")
        put(q, prod, ts=0)
        q.commit_get(cons, None, t=0.0)
        assert q.has_room()

    def test_aru_piggyback(self, harness):
        aru = BackwardStpVector("min")
        q = harness.squeue(aru=aru)
        prod = q.register_producer("p")
        cons = q.register_consumer("c")
        assert put(q, prod, ts=0) is None
        q.commit_get(cons, None, t=0.0, consumer_summary=0.4)
        assert put(q, prod, ts=1) == 0.4

    def test_maybe_collect_noop(self, harness):
        q = harness.squeue()
        assert q.maybe_collect(0.0) == 0


class TestDrain:
    def test_drain_frees_everything_queued(self, harness):
        h = harness
        q = h.squeue()
        prod = q.register_producer("p")
        for ts in range(3):
            put(q, prod, ts=ts, size=100)
        assert h.node.mem_in_use == 300
        assert q.drain(t=1.0) == 3
        assert len(q) == 0
        assert h.node.mem_in_use == 0

    def test_drain_empty_queue_is_noop(self, harness):
        q = harness.squeue()
        assert q.drain(t=0.0) == 0
