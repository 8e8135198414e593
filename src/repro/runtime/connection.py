"""Connections: the edges of the task graph.

A connection joins a thread to a buffer (channel or queue) in one
direction. Connections carry the per-edge runtime state the paper's
mechanisms need:

* consumer connections hold the get-latest cursor (``last_got``) that both
  the skipping semantics and the dead-timestamp GC rely on;
* both kinds are the slots of the ARU ``backwardSTP`` vectors;
* consumer connections count their gets and skips, which telemetry
  reads (and the buffer keeps once the connection is unregistered).

Both kinds are slotted and compare by identity: a fleet holds one per
edge of every tenant, and a buffer finds a connection in its lists by
``is``.
"""

from __future__ import annotations

import itertools

_next_conn_id = itertools.count(1)


def reset_conn_ids() -> None:
    """Restart the global connection-id counter (test isolation only)."""
    global _next_conn_id
    _next_conn_id = itertools.count(1)


class OutputConnection:
    """thread -> buffer (producer side)."""

    __slots__ = ("thread", "buffer", "conn_id")

    def __init__(self, thread: str, buffer: str) -> None:
        self.thread = thread
        self.buffer = buffer
        self.conn_id = next(_next_conn_id)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Out#{self.conn_id} {self.thread}->{self.buffer}>"


class InputConnection:
    """buffer -> thread (consumer side).

    ``last_got`` is the highest timestamp this consumer has gotten (-1
    before the first get): get-latest returns only items with ``ts >
    last_got``, which is what makes every timestamp at or below it
    provably dead for this consumer. ``gets`` and ``skips`` count the
    items gotten and skipped through it.
    """

    __slots__ = ("buffer", "thread", "conn_id", "last_got", "gets", "skips")

    def __init__(self, buffer: str, thread: str) -> None:
        self.buffer = buffer
        self.thread = thread
        self.conn_id = next(_next_conn_id)
        self.last_got = -1
        self.gets = 0
        self.skips = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<In#{self.conn_id} {self.buffer}->{self.thread} last_got={self.last_got}>"
