"""Stateful property-based testing of Channel invariants.

A hypothesis state machine drives a channel through random interleavings
of puts, gets (all request kinds), releases, and GC passes — once through
the simulated shell (``commit_put``/``commit_get`` with explicit times)
and once through the threaded shell (``ThreadChannel.put``/``try_get``/
``release`` under a ``ManualClock``) — and checks the structural
invariants of the one state machine behind both after every step:

* stored timestamps are unique and sorted;
* ``bytes_held`` equals the sum of stored item sizes, and matches the
  node's memory accounting;
* consumer cursors are monotone non-decreasing;
* no GC ever frees an item whose timestamp any consumer's cursor has not
  passed (the GC safety contract);
* freed items are really gone; doomed items are freed at release;
* recorder alloc/free pairing is consistent.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import Node, NodeSpec
from repro.gc import make_gc
from repro.metrics import TraceRecorder
from repro.rt_threads import ThreadChannel
from repro.runtime import Channel, Item
from repro.sim import Engine, RngRegistry
from repro.vt import EARLIEST, LATEST, ManualClock


class ChannelMachine(RuleBasedStateMachine):
    """The rules and invariants; a subclass supplies one shell.

    ``setup`` binds ``self.shell`` (what the rules drive), ``self.channel``
    (the :class:`Channel` holding the state) and ``self.recorder``, then
    calls :meth:`_start`; ``_put``/``_get``/``_release``/``_collect`` and
    ``_ledger_bytes`` speak that shell's surface.
    """

    def _start(self, n_consumers):
        self.producer = self.shell.register_producer("p")
        self.consumers = [
            self.shell.register_consumer(f"c{i}") for i in range(n_consumers)
        ]
        self.next_ts = 0
        self.held = []  # (conn, view)
        self.prev_cursors = {c.conn_id: c.last_got for c in self.consumers}

    # -- actions ----------------------------------------------------------
    @rule(gap=st.integers(0, 3), size=st.integers(0, 1000))
    def put(self, gap, size):
        ts = self.next_ts + gap
        self.next_ts = ts + 1
        self._put(Item(ts=ts, size=size, producer="p"))

    @rule(which=st.integers(0, 2), kind=st.sampled_from(["latest", "earliest"]))
    def get(self, which, kind):
        conn = self.consumers[which % len(self.consumers)]
        view = self._get(conn, LATEST if kind == "latest" else EARLIEST)
        if view is not None:
            assert view.ts > self.prev_cursors[conn.conn_id]
            self.held.append((conn, view))

    @precondition(lambda self: self.held)
    @rule()
    def release_oldest(self):
        conn, view = self.held.pop(0)
        self._release(view)

    @rule()
    def collect(self):
        self._collect()

    # -- invariants ---------------------------------------------------------
    @invariant()
    def timestamps_sorted_unique(self):
        order = self.channel._order
        assert order == sorted(order)
        assert len(order) == len(set(order))
        assert set(order) == set(self.channel._items)

    @invariant()
    def byte_accounting_consistent(self):
        stored = sum(i.size for i in self.channel._items.values())
        assert self.channel.bytes_held == stored
        assert self._ledger_bytes() == stored

    @invariant()
    def cursors_monotone(self):
        for conn in self.consumers:
            assert conn.last_got >= self.prev_cursors[conn.conn_id]
            self.prev_cursors[conn.conn_id] = conn.last_got

    @invariant()
    def gc_safety(self):
        """Every freed item's ts is at or below every cursor."""
        min_cursor = min(c.last_got for c in self.consumers)
        for trace in self.recorder.items.values():
            if trace.t_free is not None:
                assert trace.ts <= min_cursor

    @invariant()
    def stored_items_not_freed(self):
        for item in self.channel._items.values():
            assert not item.freed

    @invariant()
    def recorder_free_implies_absent(self):
        present_ids = {i.item_id for i in self.channel._items.values()}
        for trace in self.recorder.items.values():
            if trace.t_free is not None:
                assert trace.item_id not in present_ids


class SimulatedShell(ChannelMachine):
    @initialize(gc=st.sampled_from(["null", "ref", "dgc"]),
                n_consumers=st.integers(1, 3))
    def setup(self, gc, n_consumers):
        engine = Engine()
        self.node = Node(engine, NodeSpec(name="n0"), RngRegistry(0))
        self.recorder = TraceRecorder()
        self.shell = self.channel = Channel(
            engine, "ch", self.node, recorder=self.recorder, gc=make_gc(gc),
        )
        self.clock = 0.0
        self._start(n_consumers)

    def _tick(self) -> float:
        self.clock += 1.0
        return self.clock

    def _put(self, item):
        self.channel.commit_put(self.producer, item, t=self._tick())

    def _get(self, conn, request):
        if not self.channel.try_match(conn, request):
            return None
        return self.channel.commit_get(conn, request, t=self._tick())

    def _release(self, view):
        self.channel.release(view._item, t=self._tick())

    def _collect(self):
        self.channel.maybe_collect(self._tick())

    def _ledger_bytes(self):
        return self.node.mem_in_use


class ThreadedShell(ChannelMachine):
    @initialize(n_consumers=st.integers(1, 3))
    def setup(self, n_consumers):
        self.recorder = TraceRecorder()
        self.clock = ManualClock()
        self.shell = ThreadChannel("ch", self.recorder, self.clock)
        self.channel = self.shell._state
        self._start(n_consumers)

    def _put(self, item):
        self.clock.advance(1.0)
        self.shell.put(self.producer, item)

    def _get(self, conn, request):
        self.clock.advance(1.0)
        return self.shell.try_get(conn, request)

    def _release(self, view):
        self.clock.advance(1.0)
        self.shell.release(view._item)

    def _collect(self):
        """No separate entry point: DGC rides on every put and get."""

    def _ledger_bytes(self):
        return self.shell.bytes_held


_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestChannelStateful = SimulatedShell.TestCase
TestChannelStateful.settings = _SETTINGS
TestThreadChannelStateful = ThreadedShell.TestCase
TestThreadChannelStateful.settings = _SETTINGS
