"""Unit tests for the garbage collectors against hand-driven channels."""

import pytest

from repro.cluster import Node, NodeSpec
from repro.gc import (
    DeadTimestampGC,
    NullGC,
    RefCountGC,
    TransparentGC,
    make_gc,
)
from repro.errors import ConfigError
from repro.metrics import TraceRecorder
from repro.runtime import Channel, Item
from repro.sim import Engine, RngRegistry
from repro.vt import LATEST


class FakeRuntime:
    """Minimal runtime stand-in exposing a settable GVT."""

    def __init__(self):
        self.gvt = None

    def global_virtual_time(self):
        return self.gvt


def make_channel(gc):
    eng = Engine()
    node = Node(eng, NodeSpec(name="n0"), RngRegistry(0))
    rec = TraceRecorder()
    ch = Channel(eng, "ch", node, recorder=rec, gc=gc)
    return ch, rec


def fill(ch, prod, n, size=10):
    items = []
    for ts in range(n):
        item = Item(ts=ts, size=size, producer="p")
        ch.commit_put(prod, item, t=float(ts))
        items.append(item)
    return items


class TestMakeGc:
    def test_default_is_dgc(self):
        assert isinstance(make_gc(None), DeadTimestampGC)

    def test_names(self):
        assert isinstance(make_gc("null"), NullGC)
        assert isinstance(make_gc("ref"), RefCountGC)
        assert isinstance(make_gc("tgc"), TransparentGC)
        assert isinstance(make_gc("DGC"), DeadTimestampGC)

    def test_instance_passthrough(self):
        gc = RefCountGC()
        assert make_gc(gc) is gc

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_gc("quantum")
        with pytest.raises(ConfigError):
            make_gc(42)


class TestNullGC:
    def test_never_frees(self):
        ch, _ = make_channel(NullGC())
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        fill(ch, prod, 10)
        view = ch.commit_get(cons, LATEST, t=10.0)
        ch.release(view._item, t=10.0)
        assert len(ch) == 10
        assert ch.total_frees == 0


class TestDeadTimestampGC:
    def test_skipped_items_freed_on_get(self):
        ch, rec = make_channel(DeadTimestampGC())
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        fill(ch, prod, 5)
        view = ch.commit_get(cons, LATEST, t=5.0)  # gets ts=4, skips 0-3
        assert view.ts == 4
        # skipped 0-3 are dead and unreferenced -> freed now
        assert len(ch) == 1  # only ts=4 (held) remains
        assert ch.total_frees == 4
        for item_id, trace in rec.items.items():
            if trace.ts < 4:
                assert trace.t_free == 5.0

    def test_gotten_item_doomed_until_release(self):
        ch, rec = make_channel(DeadTimestampGC())
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        items = fill(ch, prod, 1)
        view = ch.commit_get(cons, LATEST, t=1.0)
        assert items[0].doomed and not items[0].freed  # referenced
        ch.release(view._item, t=2.0)
        assert items[0].freed
        assert rec.items[items[0].item_id].t_free == 2.0

    def test_multi_consumer_waits_for_slowest_cursor(self):
        ch, _ = make_channel(DeadTimestampGC())
        prod = ch.register_producer("p")
        c1 = ch.register_consumer("c1")
        c2 = ch.register_consumer("c2")
        fill(ch, prod, 4)
        v = ch.commit_get(c1, LATEST, t=4.0)  # c1 cursor -> 3
        ch.release(v._item, t=4.0)
        # c2 has not consumed anything: nothing may be freed
        assert len(ch) == 4
        v2 = ch.commit_get(c2, LATEST, t=5.0)  # c2 cursor -> 3
        ch.release(v2._item, t=5.0)
        assert len(ch) == 0

    def test_no_consumers_nothing_freed(self):
        ch, _ = make_channel(DeadTimestampGC())
        prod = ch.register_producer("p")
        fill(ch, prod, 3)
        assert ch.maybe_collect(3.0) == 0
        assert len(ch) == 3


class CountingDGC(DeadTimestampGC):
    passes = 0

    def dead_items(self, channel):
        self.passes += 1
        return super().dead_items(channel)


class TestDgcRunsOnTheEventThatChangesTheAnswer:
    """Which puts and gets cost a pass (the stateful machine in
    ``tests/runtime`` checks that skipping the others frees the same)."""

    def setup_method(self):
        self.gc = CountingDGC()
        self.ch, _ = make_channel(self.gc)
        self.prod = self.ch.register_producer("p")
        self.fast = self.ch.register_consumer("fast")
        self.slow = self.ch.register_consumer("slow")
        fill(self.ch, self.prod, 3)  # the first put finds nothing to do
        self.gc.passes = 0

    def get(self, conn, t=9.0):
        view = self.ch.commit_get(conn, LATEST, t=t)
        self.ch.release(view._item, t=t)
        return view

    def test_a_put_above_the_threshold_costs_nothing(self):
        self.ch.commit_put(self.prod, Item(ts=3, size=1), t=3.0)
        assert self.gc.passes == 0

    def test_only_the_minimum_cursor_moving_costs_a_pass(self):
        self.get(self.fast)
        assert self.gc.passes == 1  # both cursors sat at the minimum, -1
        self.ch.commit_put(self.prod, Item(ts=3, size=1), t=3.0)
        self.get(self.fast)  # fast is ahead of slow: the minimum stays
        assert self.gc.passes == 1 and len(self.ch) == 4
        self.get(self.slow)
        assert self.gc.passes == 2 and len(self.ch) == 0

    def test_a_put_dead_on_arrival_costs_a_pass_and_is_freed(self):
        self.ch.commit_put(self.prod, Item(ts=7, size=1), t=3.0)
        self.get(self.fast)
        self.get(self.slow)
        assert len(self.ch) == 0
        passes = self.gc.passes
        self.ch.commit_put(self.prod, Item(ts=5, size=1), t=4.0)
        assert self.gc.passes == passes + 1 and len(self.ch) == 0

    def test_a_consumer_leaving_or_resuming_costs_a_pass(self):
        self.get(self.fast)
        passes = self.gc.passes
        self.ch.unregister_consumer(self.slow)
        self.ch.commit_put(self.prod, Item(ts=3, size=1), t=3.0)
        assert self.gc.passes == passes + 1
        assert [i.ts for i in self.ch.items_snapshot()] == [3]
        self.ch.resume_consumer("back", 3)  # fast, at 2, is still behind
        self.ch.commit_put(self.prod, Item(ts=4, size=1), t=4.0)
        assert self.gc.passes == passes + 2
        assert [i.ts for i in self.ch.items_snapshot()] == [3, 4]

    @pytest.mark.parametrize("name", ["null", "ref", "tgc"])
    def test_the_other_collectors_are_asked_every_time(self, name):
        ch, _ = make_channel(make_gc(name))
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        fill(ch, prod, 3)
        ch.commit_get(cons, LATEST, t=3.0)
        assert ch._gc_due


class TestRefCountGC:
    def test_fully_consumed_item_freed(self):
        ch, _ = make_channel(RefCountGC())
        prod = ch.register_producer("p")
        c1 = ch.register_consumer("c1")
        c2 = ch.register_consumer("c2")
        items = fill(ch, prod, 1)
        v1 = ch.commit_get(c1, LATEST, t=1.0)
        ch.release(v1._item, t=1.0)
        assert not items[0].freed  # c2 has not consumed it
        v2 = ch.commit_get(c2, LATEST, t=2.0)
        ch.release(v2._item, t=2.0)
        assert items[0].freed

    def test_skipped_items_leak_forever(self):
        """The failure mode motivating timestamp GC: skips never free."""
        ch, _ = make_channel(RefCountGC())
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        fill(ch, prod, 10)
        view = ch.commit_get(cons, LATEST, t=10.0)  # skips 0..8
        ch.release(view._item, t=10.0)
        assert ch.total_frees == 1  # only the consumed item
        assert len(ch) == 9  # the skipped ones leak


class TestTransparentGC:
    def test_frees_below_gvt(self):
        gc = TransparentGC()
        fake = FakeRuntime()
        gc.bind(fake)
        ch, _ = make_channel(gc)
        prod = ch.register_producer("p")
        cons = ch.register_consumer("c")
        fill(ch, prod, 6)
        # consumer cursor advances so the invariant (never free beyond a
        # cursor) holds when GVT rises
        view = ch.commit_get(cons, LATEST, t=6.0)
        ch.release(view._item, t=6.0)
        fake.gvt = 3
        assert ch.maybe_collect(7.0) == 3  # ts 0,1,2 dead
        assert len(ch) == 3  # ts 3,4 remain plus the released ts=5
        fake.gvt = 6
        ch.maybe_collect(8.0)
        assert len(ch) == 0

    def test_without_gvt_nothing_freed(self):
        gc = TransparentGC()
        fake = FakeRuntime()
        gc.bind(fake)
        ch, _ = make_channel(gc)
        prod = ch.register_producer("p")
        ch.register_consumer("c")
        fill(ch, prod, 3)
        assert ch.maybe_collect(3.0) == 0

    def test_unbound_is_noop(self):
        gc = TransparentGC()
        ch, _ = make_channel(gc)
        prod = ch.register_producer("p")
        ch.register_consumer("c")
        fill(ch, prod, 3)
        assert ch.maybe_collect(3.0) == 0


class TestGcSafetyInvariant:
    """No collector may free an item a consumer's cursor has not passed."""

    @pytest.mark.parametrize("gc_name", ["null", "ref", "dgc"])
    def test_freed_implies_all_cursors_passed(self, gc_name):
        ch, rec = make_channel(make_gc(gc_name))
        prod = ch.register_producer("p")
        c1 = ch.register_consumer("c1")
        c2 = ch.register_consumer("c2")
        import random

        rng = random.Random(42)
        ts = 0
        held = []
        for step in range(200):
            action = rng.random()
            if action < 0.5:
                item = Item(ts=ts, size=1, producer="p")
                if ch.has_item(ts):
                    ts += 1
                    continue
                ch.commit_put(prod, item, t=float(step))
                ts += 1
            else:
                conn = c1 if action < 0.75 else c2
                if ch.try_match(conn, LATEST):
                    view = ch.commit_get(conn, LATEST, t=float(step))
                    held.append((view, conn))
            if held and rng.random() < 0.5:
                view, _ = held.pop(0)
                ch.release(view._item, t=float(step))
            # invariant: every freed item's ts <= both cursors
            for trace in rec.items.values():
                if trace.t_free is not None:
                    assert trace.ts <= c1.last_got
                    assert trace.ts <= c2.last_got
