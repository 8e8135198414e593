"""What a blocked get is, pinned on every buffer that hands one out.

A get that cannot commit yet waits on its buffer until a put (or a
frontier move, or a slot reassignment) makes it ready. These tests pin
what that wait does, on a channel, a queue and a partition/merge pair:
the order in which blocked consumers wake, that a timed-out get leaves
nothing behind, what a get whose consumer was killed while it waited
does when the buffer is next notified (its event still fires: one
engine event, nothing resumed), and that a blocked get ties its buffer
into no reference cycle.
"""

import gc
import weakref

import pytest

from repro.aru import aru_disabled
from repro.cluster import ClusterSpec, NodeSpec
from repro.runtime import (
    Get,
    Item,
    MergeChannel,
    PartitionQueue,
    Put,
    Runtime,
    RuntimeConfig,
    Sleep,
    TaskGraph,
)
from repro.vt import LATEST


def put(buf, conn, ts, size=10):
    return buf.commit_put(conn, Item(ts=ts, size=size, producer=conn.thread),
                          t=buf.engine.now)


def getter(buf, conn, woken):
    """A consumer as the driver runs one: request, wait, re-check (a
    sibling may have popped the item first), commit."""
    while True:
        yield buf.request_get(conn, LATEST)
        if buf.try_match(conn, LATEST):
            break
    view = buf.commit_get(conn, LATEST, t=buf.engine.now)
    woken.append((conn.thread, view.ts))


def make_stage(h):
    q = PartitionQueue(h.engine, "part", h.node, recorder=h.recorder)
    m = MergeChannel(h.engine, "merge", h.node, recorder=h.recorder, gc=h.gc)
    q.bind_merge(m)
    return q, m


def block_in_order(h, buf, order):
    """Register consumers c0..cN-1, then block them in ``order``."""
    conns = {name: buf.register_consumer(name) for name in sorted(order)}
    woken = []
    for name in order:
        h.engine.process(getter(buf, conns[name], woken))
    h.engine.run(until=0.5)
    assert len(buf._getters) == len(order)
    return conns, woken


class TestWakeOrder:
    def test_channel_wakes_every_blocked_consumer_in_blocking_order(
            self, harness_null_gc):
        h = harness_null_gc
        ch = h.channel()
        prod = ch.register_producer("p")
        _, woken = block_in_order(h, ch, ["c2", "c0", "c1"])
        put(ch, prod, ts=3)
        h.engine.run()
        assert woken == [("c2", 3), ("c0", 3), ("c1", 3)]
        assert len(ch._getters) == 0

    def test_queue_hands_each_item_to_the_longest_blocked(self, harness):
        h = harness
        q = h.squeue()
        prod = q.register_producer("p")
        _, woken = block_in_order(h, q, ["c1", "c2", "c0"])

        def producer(eng):
            for ts in range(3):
                yield eng.timeout(1.0)
                put(q, prod, ts=ts)

        h.engine.process(producer(h.engine))
        h.engine.run()
        assert woken == [("c1", 0), ("c2", 1), ("c0", 2)]
        assert len(q._getters) == 0

    def test_partition_wakes_only_the_slot_an_item_lands_on(self, harness):
        h = harness
        q, _ = make_stage(h)
        prod = q.register_producer("p")
        _, woken = block_in_order(h, q, ["c2", "c0", "c1"])
        put(q, prod, ts=0)  # round robin: slot 0, 1, 2
        assert len(q._getters) == 2
        put(q, prod, ts=1)
        put(q, prod, ts=2)
        h.engine.run()
        assert woken == [("c0", 0), ("c1", 1), ("c2", 2)]

    def test_merge_frontier_move_wakes_in_blocking_order(self, harness_null_gc):
        h = harness_null_gc
        q, m = make_stage(h)
        q.register_consumer("w")
        producer = m.register_producer("w")
        _, woken = block_in_order(h, m, ["c1", "c0"])
        m.expect(0)
        m.expect(1)
        put(m, producer, ts=1)  # hidden behind outstanding ts 0
        h.engine.run(until=1.0)
        assert woken == []
        m.abandon(0)
        h.engine.run()
        assert woken == [("c1", 1), ("c0", 1)]


def quiet():
    return ClusterSpec(nodes=(NodeSpec(name="node0", sched_noise_cv=0.0),))


def consumer_runtime(kind, consumer_fn, producer_fn):
    g = TaskGraph()
    g.add_thread("prod", producer_fn)
    g.add_thread("cons", consumer_fn, sink=True)
    (g.add_channel if kind == "channel" else g.add_queue)("b")
    g.connect("prod", "b").connect("b", "cons")
    return Runtime(g, RuntimeConfig(cluster=quiet(), aru=aru_disabled()))


@pytest.mark.parametrize("kind", ["channel", "queue"])
class TestTimedOutGet:
    def test_leaves_no_waiter(self, kind):
        results = []

        def prod(ctx):
            yield Sleep(100.0)

        def cons(ctx):
            results.append((yield Get("b", timeout=0.5)))
            yield Sleep(100.0)

        rt = consumer_runtime(kind, cons, prod)
        rt.run(until=2.0)
        assert results == [None]
        assert len(rt.buffers["b"]._getters) == 0

    def test_a_later_put_goes_to_the_next_get(self, kind):
        results = []

        def prod(ctx):
            yield Sleep(1.0)
            yield Put("b", ts=5, size=1)
            yield Sleep(100.0)

        def cons(ctx):
            results.append((yield Get("b", timeout=0.5)))
            view = yield Get("b")
            results.append(view.ts)

        rt = consumer_runtime(kind, cons, prod)
        rt.run(until=2.0)
        assert results == [None, 5]
        assert len(rt.buffers["b"]._getters) == 0


def killed_consumer_run(kind, blocked):
    """Kill the consumer at t=1, blocked in a get or asleep; return the
    buffer's blocked gets after the kill and after the put at t=2, and
    the engine events processed from t=1.5 to t=2.5."""
    def prod(ctx):
        yield Sleep(2.0)
        yield Put("b", ts=7, size=1)
        yield Sleep(100.0)

    def cons(ctx):
        yield (Get("b") if blocked else Sleep(100.0))

    rt = consumer_runtime(kind, cons, prod)
    buf = rt.buffers["b"]
    rt.advance(1.0)
    rt.kill_thread("cons")
    rt.advance(0.5)
    assert not rt.thread_alive("cons")
    waiting = len(buf._getters)
    events = rt.engine.events_processed
    rt.advance(1.0)
    assert len(buf) == 1  # nobody took the item
    return waiting, len(buf._getters), rt.engine.events_processed - events


@pytest.mark.parametrize("kind", ["channel", "queue"])
def test_a_killed_consumers_get_fires_once_at_the_next_put(kind):
    """The record a killed consumer leaves stays until the next notify,
    which fires its event (one engine event that resumes nothing) and
    drops it."""
    waiting, after, events = killed_consumer_run(kind, blocked=True)
    assert (waiting, after) == (1, 0)
    assert killed_consumer_run(kind, blocked=False) == (0, 0, events - 1)


def partition_run(h, killed_blocked):
    """Workers c0 and c1 on a partition queue; c0 dies, blocked in a get
    or before it asked for one; then one item lands on each slot."""
    q, _ = make_stage(h)
    prod = q.register_producer("p")
    conns = [q.register_consumer(name) for name in ("c0", "c1")]
    woken = []
    procs = [h.engine.process(getter(q, conn, woken)) for conn in conns]
    if not killed_blocked:
        procs[0].kill()
    h.engine.run(until=0.5)
    procs[0].kill()
    h.engine.run(until=1.0)
    waiting = len(q._getters)
    events = h.engine.events_processed
    put(q, prod, ts=0)  # slot 0, whose worker is dead
    put(q, prod, ts=1)  # slot 1
    h.engine.run()
    assert woken == [("c1", 1)]
    assert len(q._getters) == 0
    assert q.pending_of(conns[0]) == 1  # the item waits for its slot
    return waiting, h.engine.events_processed - events


def test_a_killed_workers_get_on_a_partition_fires_at_the_next_put(harness):
    waiting, events = partition_run(harness, killed_blocked=True)
    assert waiting == 2
    assert partition_run(type(harness)(), killed_blocked=False) == (
        1, events - 1)


def test_a_blocked_get_leaves_no_reference_cycle(harness_null_gc):
    """A buffer with gets blocked on it is freed by reference counting
    alone: what a blocked get keeps does not point back at the buffer."""
    h = harness_null_gc
    ch = h.channel()
    q = h.squeue()
    events = [buf.request_get(buf.register_consumer("c"), LATEST)
              for buf in (ch, q)]
    assert not any(ev.triggered for ev in events)
    refs = [weakref.ref(ch), weakref.ref(q)]
    gc.collect()
    gc.disable()
    try:
        del ch, q
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
