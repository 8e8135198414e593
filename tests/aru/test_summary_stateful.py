"""Model-based test of :class:`BackwardStpVector`, the only ARU state.

A hypothesis state machine drives one vector through random updates,
evictions, clears and clock advances under an optional staleness TTL,
against a plain ``{conn: (value, last_heard)}`` dict. After every step:

* ``compressed()`` is ``op(live slots)``, or ``None`` with none live,
  for every registered operator;
* ``len``, ``evictions`` and ``snapshot()`` match the model;
* a negative value raises and leaves every slot as it was.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.aru import BackwardStpVector
from repro.aru.operators import _NAMED, resolve

OPERATORS = sorted(_NAMED) + ["kth:1"]
CONNS = st.sampled_from(["a", "b", "c", "d"])


class BackwardStpMachine(RuleBasedStateMachine):
    @initialize(op=st.sampled_from(OPERATORS),
                ttl=st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.5])))
    def build(self, op, ttl):
        self.now = 0.0
        self.ttl = ttl
        self.op = resolve(op)
        self.vector = BackwardStpVector(op, ttl=ttl, time_fn=lambda: self.now)
        self.model = {}  # conn -> (value, last heard)
        self.evicted = 0

    @rule(conn=CONNS, value=st.floats(0.0, 1e3))
    def update(self, conn, value):
        self.vector.update(conn, value)
        self.model[conn] = (value, self.now)

    @rule(conn=CONNS, value=st.floats(max_value=-1e-9, allow_infinity=False))
    def negative_value_is_rejected(self, conn, value):
        before = self.vector.snapshot()
        with pytest.raises(ValueError):
            self.vector.update(conn, value)
        assert self.vector.snapshot() == before

    @rule(conn=CONNS)
    def evict(self, conn):
        assert self.vector.evict(conn) is (conn in self.model)
        self.model.pop(conn, None)

    @rule()
    def clear(self):
        self.vector.clear()
        self.model.clear()

    @rule(dt=st.sampled_from([0.1, 0.4, 1.0, 3.0]))
    def advance_clock(self, dt):
        self.now += dt

    @invariant()
    def compressed_is_op_of_live_slots(self):
        assert len(self.vector) == len(self.model)
        if self.ttl is not None:  # compressed() evicts what went stale
            stale = [conn for conn, (_, heard) in self.model.items()
                     if self.now - heard > self.ttl]
            for conn in stale:
                del self.model[conn]
            self.evicted += len(stale)
        live = [value for value, _ in self.model.values()]
        expected = float(self.op(live)) if live else None
        assert self.vector.compressed() == expected
        assert len(self.vector) == len(self.model)
        assert self.vector.evictions == self.evicted
        assert self.vector.snapshot() == {
            conn: value for conn, (value, _) in self.model.items()}


TestBackwardStpVectorModel = BackwardStpMachine.TestCase
TestBackwardStpVectorModel.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None)
