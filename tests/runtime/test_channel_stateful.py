"""Stateful property-based testing of Channel invariants.

A hypothesis state machine drives a channel through random interleavings
of puts, gets (all request kinds), releases, GC passes and consumers
attaching, resuming and detaching — once through the simulated shell (``commit_put``/``commit_get`` with explicit times)
and once through the threaded shell (``ThreadChannel.put``/``try_get``/
``release`` under a ``ManualClock``) — and checks the structural
invariants of the one state machine behind both after every step:

* stored timestamps are unique and sorted;
* ``bytes_held`` equals the sum of stored item sizes, and matches the
  node's memory accounting;
* consumer cursors are monotone non-decreasing;
* no GC ever dooms or frees an item whose timestamp any consumer's cursor
  has not passed (the GC safety contract);
* eager DGC is *prompt*: once a put or get has run, nothing at or below
  every cursor is stored unreferenced, and what is referenced is doomed;
* freed items are really gone; doomed items are freed at release;
* recorder alloc/free pairing is consistent.

The DGC remembers its threshold between passes and runs one only when a
put, a get or a change of the consumer set can have changed the answer.
The rule it replaced — recompute ``min(last_got)`` and slice on every put
and get — lives on here as :class:`StatelessDGC`, the oracle: a second
channel collected by it is driven through the same operations, and the
two must free the same items at the same steps on every sequence.
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
from repro.gc import GarbageCollector, make_gc
from repro.metrics import TraceRecorder
from repro.rt_threads import ThreadChannel
from repro.runtime import Channel, Item
from repro.sim import Engine, RngRegistry
from repro.vt import EARLIEST, LATEST, ManualClock


class StatelessDGC(GarbageCollector):
    """The oracle: dead-timestamp identification with no memory. Every
    pass recomputes the threshold and slices; it never clears the
    buffer's due flag, so the channel asks it on every put and get."""

    name = "dgc"

    def dead_items(self, channel):
        if not channel.in_conns:
            return ()
        threshold = min(conn.last_got for conn in channel.in_conns)
        if threshold < 0:
            return ()
        return channel.items_upto(threshold)


class FreeLog(TraceRecorder):
    """A recorder that also keeps ``(ts, t)`` of every free, in order."""

    def __init__(self):
        super().__init__()
        self.frees = []

    def on_free(self, item_id, t):
        self.frees.append((self.items[item_id].ts, t))
        super().on_free(item_id, t)


MAX_CONSUMERS = 4


class ChannelMachine(RuleBasedStateMachine):
    """The rules and invariants; a subclass supplies one shell.

    ``setup`` binds ``self.shell`` (what the rules drive), ``self.channel``
    (the :class:`Channel` holding the state), ``self.recorder`` (a
    :class:`FreeLog`) and ``self.eager_dgc``, then calls :meth:`_start`;
    ``_tick``/``_put``/``_get``/``_release``/``_collect``/``_attach``/
    ``_detach`` and ``_ledger_bytes`` speak that shell's surface.
    """

    def _start(self, n_consumers):
        # The oracle's channel: same operations, same times, old rule.
        engine = Engine()
        self.oracle = Channel(
            engine, "ch", Node(engine, NodeSpec(name="n0"), RngRegistry(0)),
            recorder=FreeLog(), gc=StatelessDGC(),
        ) if self.eager_dgc else None
        self.producer = self.shell.register_producer("p")
        if self.oracle is not None:
            self.oracle_producer = self.oracle.register_producer("p")
        self.consumers = []  # (conn, the oracle's conn or None)
        self.n_attached = 0
        self.prev_cursors = {}
        for _ in range(n_consumers):
            self.attach_consumer(resume_at=None)
        self.next_ts = 0
        self.items = []  # every Item put into the shell's channel
        self.condemned = set()  # timestamps seen doomed or freed
        self.held = []  # (view, the oracle's view or None)
        #: Whether a put or get has run since the consumer set changed
        #: (detaching marks a pass due; the next put or get runs it).
        self.settled = True

    # -- actions ----------------------------------------------------------
    @rule(gap=st.integers(0, 3), size=st.integers(0, 1000))
    def put(self, gap, size):
        ts = self.next_ts + gap
        self.next_ts = ts + 1
        t = self._tick()
        item = Item(ts=ts, size=size, producer="p")
        self.items.append(item)
        self._put(item, t)
        if self.oracle is not None:
            self.oracle.commit_put(
                self.oracle_producer, Item(ts=ts, size=size, producer="p"), t)
        self.settled = True

    @precondition(lambda self: self.consumers)
    @rule(which=st.integers(0, MAX_CONSUMERS - 1),
          kind=st.sampled_from(["latest", "earliest"]))
    def get(self, which, kind):
        conn, oracle_conn = self.consumers[which % len(self.consumers)]
        request = LATEST if kind == "latest" else EARLIEST
        t = self._tick()
        view = self._get(conn, request, t)
        oracle_view = None
        if self.oracle is not None and self.oracle.try_match(oracle_conn,
                                                             request):
            oracle_view = self.oracle.commit_get(oracle_conn, request, t)
            assert view is not None and view.ts == oracle_view.ts
        if view is not None:
            assert view.ts > self.prev_cursors[conn.conn_id]
            assert self.oracle is None or oracle_view is not None
            self.held.append((view, oracle_view))
            self.settled = True

    @precondition(lambda self: self.held)
    @rule()
    def release_oldest(self):
        view, oracle_view = self.held.pop(0)
        t = self._tick()
        self._release(view, t)
        if oracle_view is not None:
            self.oracle.release(oracle_view._item, t)

    @rule()
    def collect(self):
        t = self._tick()
        if self._collect(t) and self.oracle is not None:
            self.oracle.maybe_collect(t)

    @precondition(lambda self: len(self.consumers) < MAX_CONSUMERS)
    @rule(resume_at=st.one_of(st.none(), st.integers(0, 12)))
    def attach_consumer(self, resume_at):
        """A consumer joins — cold, or resuming a cursor (a reconnect)."""
        thread = f"c{self.n_attached}"
        self.n_attached += 1
        conn = self._attach(thread, resume_at)
        oracle_conn = None
        if self.oracle is not None:
            oracle_conn = (self.oracle.register_consumer(thread)
                           if resume_at is None else
                           self.oracle.resume_consumer(thread, resume_at))
        self.consumers.append((conn, oracle_conn))
        self.prev_cursors[conn.conn_id] = conn.last_got
        self.settled = False

    @precondition(lambda self: self.consumers)
    @rule(which=st.integers(0, MAX_CONSUMERS - 1))
    def detach_consumer(self, which):
        conn, oracle_conn = self.consumers.pop(which % len(self.consumers))
        del self.prev_cursors[conn.conn_id]
        self._detach(conn)
        if oracle_conn is not None:
            self.oracle.unregister_consumer(oracle_conn)
        self.settled = False

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
        for conn, _oracle_conn in self.consumers:
            assert conn.last_got >= self.prev_cursors[conn.conn_id]
            self.prev_cursors[conn.conn_id] = conn.last_got

    def _min_cursor(self):
        """The lowest cursor, or None when nobody consumes."""
        return min((c.last_got for c, _o in self.consumers), default=None)

    @invariant()
    def gc_safety(self):
        """An item is doomed or freed only at or below every cursor of
        the step that condemned it (consumers may come and go later)."""
        min_cursor = self._min_cursor()
        for item in self.items:
            if (item.doomed or item.freed) and item.ts not in self.condemned:
                assert min_cursor is not None and item.ts <= min_cursor
                self.condemned.add(item.ts)

    @invariant()
    def eager_dgc_is_prompt(self):
        if not (self.eager_dgc and self.settled):
            return
        min_cursor = self._min_cursor()
        if min_cursor is None:
            return
        for item in self.channel.items_upto(min_cursor):
            assert item.refcount > 0 and item.doomed, item

    @invariant()
    def frees_what_the_stateless_rule_frees(self):
        """Same timestamps, same order, same instants as the oracle."""
        if self.oracle is not None:
            assert self.recorder.frees == self.oracle.recorder.frees

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
        self.recorder = FreeLog()
        self.shell = self.channel = Channel(
            engine, "ch", self.node, recorder=self.recorder, gc=make_gc(gc),
        )
        self.eager_dgc = gc == "dgc"
        self.clock = 0.0
        self._start(n_consumers)

    def _tick(self) -> float:
        self.clock += 1.0
        return self.clock

    def _put(self, item, t):
        self.channel.commit_put(self.producer, item, t=t)

    def _get(self, conn, request, t):
        if not self.channel.try_match(conn, request):
            return None
        return self.channel.commit_get(conn, request, t=t)

    def _release(self, view, t):
        self.channel.release(view._item, t=t)

    def _collect(self, t):
        self.channel.maybe_collect(t)
        return True

    def _attach(self, thread, resume_at):
        if resume_at is None:
            return self.channel.register_consumer(thread)
        return self.channel.resume_consumer(thread, resume_at)

    def _detach(self, conn):
        self.channel.unregister_consumer(conn)

    def _ledger_bytes(self):
        return self.node.mem_in_use


class ThreadedShell(ChannelMachine):
    @initialize(n_consumers=st.integers(1, 3))
    def setup(self, n_consumers):
        self.recorder = FreeLog()
        self.clock = ManualClock()
        self.shell = ThreadChannel("ch", self.recorder, self.clock)
        self.channel = self.shell._state
        self.eager_dgc = True
        self._start(n_consumers)

    def _tick(self) -> float:
        """The shell stamps its transitions from the clock it was given."""
        self.clock.advance(1.0)
        return self.clock.now()

    def _put(self, item, t):
        self.shell.put(self.producer, item)

    def _get(self, conn, request, t):
        return self.shell.try_get(conn, request)

    def _release(self, view, t):
        self.shell.release(view._item)

    def _collect(self, t):
        """No separate entry point: DGC rides on puts and gets."""
        return False

    def _attach(self, thread, resume_at):
        if resume_at is None:
            return self.shell.register_consumer(thread)
        return self.shell.resume_consumer(thread, resume_at)

    def _detach(self, conn):
        self.shell.evict_consumer(conn.thread)

    def _ledger_bytes(self):
        return self.shell.bytes_held


_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestChannelStateful = SimulatedShell.TestCase
TestChannelStateful.settings = _SETTINGS
TestThreadChannelStateful = ThreadedShell.TestCase
TestThreadChannelStateful.settings = _SETTINGS
