"""Connections: the edges of the task graph.

A connection joins a thread to a buffer (channel or queue) in one
direction. Connections carry the per-edge runtime state the paper's
mechanisms need:

* consumer connections hold the get-latest cursor (``last_got``) that both
  the skipping semantics and the dead-timestamp GC rely on;
* both kinds are the slots of the ARU ``backwardSTP`` vectors;
* consumer connections count their gets and skips, which telemetry
  reads (and the buffer keeps once the connection is unregistered).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

_next_conn_id = itertools.count(1)


def reset_conn_ids() -> None:
    """Restart the global connection-id counter (test isolation only)."""
    global _next_conn_id
    _next_conn_id = itertools.count(1)


@dataclass
class OutputConnection:
    """thread -> buffer (producer side)."""

    thread: str
    buffer: str
    conn_id: int = field(default_factory=lambda: next(_next_conn_id))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Out#{self.conn_id} {self.thread}->{self.buffer}>"


@dataclass
class InputConnection:
    """buffer -> thread (consumer side)."""

    buffer: str
    thread: str
    conn_id: int = field(default_factory=lambda: next(_next_conn_id))
    #: Highest timestamp this consumer has gotten (-1 before the first get).
    #: get-latest returns only items with ``ts > last_got``, which is what
    #: makes every timestamp at or below it provably dead for this consumer.
    last_got: int = -1
    #: Items gotten / skipped through this connection.
    gets: int = 0
    skips: int = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<In#{self.conn_id} {self.buffer}->{self.thread} last_got={self.last_got}>"
