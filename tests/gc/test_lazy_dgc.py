"""Tests for the lazy (interval-based) DGC variant."""

import pytest

from repro.cluster import Node, NodeSpec
from repro.errors import ConfigError
from repro.gc import DeadTimestampGC
from repro.metrics import TraceRecorder
from repro.runtime import Channel, Item
from repro.sim import Engine, RngRegistry
from repro.vt import LATEST


def make_channel(gc):
    eng = Engine()
    node = Node(eng, NodeSpec(name="n0"), RngRegistry(0))
    rec = TraceRecorder()
    ch = Channel(eng, "ch", node, recorder=rec, gc=gc)
    return eng, ch


def test_negative_interval_rejected():
    with pytest.raises(ConfigError):
        DeadTimestampGC(interval=-1.0)


def test_zero_interval_is_eager():
    _, ch = make_channel(DeadTimestampGC(interval=0.0))
    prod = ch.register_producer("p")
    cons = ch.register_consumer("c")
    for ts in range(4):
        ch.commit_put(prod, Item(ts=ts, size=1), t=0.0)
    view = ch.commit_get(cons, LATEST, t=0.0)
    assert len(ch) == 1  # skips freed immediately
    ch.release(view._item, t=0.0)
    assert len(ch) == 0


def test_interval_defers_collection():
    eng, ch = make_channel(DeadTimestampGC(interval=5.0))
    prod = ch.register_producer("p")
    cons = ch.register_consumer("c")

    def producer(eng):
        for ts in range(20):
            yield eng.timeout(0.5)
            ch.commit_put(prod, Item(ts=ts, size=1), t=eng.now)

    def consumer(eng):
        while True:
            ev = ch.request_get(cons, LATEST)
            yield ev
            view = ch.commit_get(cons, LATEST, t=eng.now)
            ch.release(view._item, t=eng.now)
            yield eng.timeout(0.5)

    eng.process(producer(eng))
    eng.process(consumer(eng))
    eng.run(until=4.9)
    # within the first interval, only the very first pass may have run:
    # dead items from later gets are still resident
    resident_early = len(ch)
    eng.run(until=20.0)
    assert ch.total_frees > 0
    # laziness retained more than the eager policy would have at 4.9 s
    assert resident_early >= 2


def test_lazy_never_frees_live_items():
    """Safety is interval-independent: only cursor-passed items ever go."""
    eng, ch = make_channel(DeadTimestampGC(interval=1.0))
    prod = ch.register_producer("p")
    cons = ch.register_consumer("c")

    def driver(eng):
        for ts in range(30):
            ch.commit_put(prod, Item(ts=ts, size=1), t=eng.now)
            if ts % 3 == 2:
                view = ch.commit_get(cons, LATEST, t=eng.now)
                ch.release(view._item, t=eng.now)
            yield eng.timeout(0.4)

    eng.process(driver(eng))
    eng.run()
    for trace in ch.recorder.items.values():
        if trace.t_free is not None:
            assert trace.ts <= cons.last_got


def test_interval_state_is_per_channel():
    gc = DeadTimestampGC(interval=100.0)
    eng, ch_a = make_channel(gc)
    # second channel on the same collector instance
    from repro.cluster import Node as N
    node_b = N(eng, NodeSpec(name="n1"), RngRegistry(1))
    ch_b = Channel(eng, "other", node_b, recorder=ch_a.recorder, gc=gc)
    prod_a = ch_a.register_producer("p")
    cons_a = ch_a.register_consumer("c")
    prod_b = ch_b.register_producer("p")
    cons_b = ch_b.register_consumer("c")
    for ch, prod, cons in ((ch_a, prod_a, cons_a), (ch_b, prod_b, cons_b)):
        for ts in range(3):
            ch.commit_put(prod, Item(ts=ts, size=1), t=0.0)
        view = ch.commit_get(cons, LATEST, t=0.0)
        ch.release(view._item, t=0.0)
    # both channels got their own first (free) pass
    assert ch_a.total_frees > 0
    assert ch_b.total_frees > 0


def test_suppressed_pass_stays_due_and_the_next_one_takes_the_backlog():
    """A lazy pass that found a backlog stays due: inside the interval
    it keeps asking, and the first eligible put or get — whichever it
    is — reclaims it."""
    eng, ch = make_channel(DeadTimestampGC(interval=5.0))
    prod = ch.register_producer("p")
    cons = ch.register_consumer("c")

    def put(*stamps):
        for ts in stamps:
            ch.commit_put(prod, Item(ts=ts, size=1), t=eng.now)

    def get_and_release():
        view = ch.commit_get(cons, LATEST, t=eng.now)
        ch.release(view._item, t=eng.now)

    put(0, 1, 2)
    get_and_release()  # a channel's first reclaiming pass is free
    assert len(ch) == 0

    eng.run(until=1.0)
    put(3, 4)
    get_and_release()  # the minimum moved: due, but inside the interval
    assert len(ch) == 2 and ch.total_frees == 3
    assert ch._gc_due
    put(5)  # not dead on arrival; the suppressed pass is what still asks
    assert len(ch) == 3 and ch._gc_due

    eng.run(until=6.5)
    put(6)  # no cursor moved since: an eager collector would not look
    assert [item.ts for item in ch.items_snapshot()] == [5, 6]
    assert ch.total_frees == 5
