"""Summary-STP computation and the backwardSTP vector — paper §3.3.2.

Every node of the task graph (thread, channel, or queue) keeps a
``backwardSTP`` vector with one slot per *output connection* (for threads)
or per *consumer connection* (for channels/queues). The algorithm, verbatim
from the paper:

1. receive a summary-STP value from output connection *i*;
2. ``backwardSTP[i] = value``;
3. ``compressed = op(backwardSTP)`` (``min`` default, ``max`` aggressive);
4. thread nodes: ``summary = max(compressed, current_STP)``;
   channel/queue nodes: ``summary = compressed``;
5. propagate ``summary`` upstream (piggy-backed on the next put/get).

This module holds the vector (steps 1–3). Step 4 is
:meth:`repro.control.policy.SummaryStpPolicy.advertise` for threads and
:meth:`repro.control.propagation.FeedbackEndpoint.advertise` for
channels and queues.

Values are periods in **seconds**. A node that has not yet heard from any
consumer has no summary (``None``) — upstream nodes simply don't update
that slot yet, matching the cold-start of a real pipeline.

Staleness (fault tolerance, ``docs/fault-model.md``): each slot carries a
last-heard timestamp. With a ``ttl`` configured
(:attr:`~repro.aru.config.AruConfig.staleness_ttl`), a slot that has not
been refreshed within ``ttl`` seconds is evicted before compression — a
dead consumer therefore stops pinning ``min``-compression to its ghost
period, and sources un-throttle once the silence outlives the TTL.
Without a TTL (the default) slots live forever, reproducing the paper's
fault-free behaviour bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.aru.filters import FilterFactory, NoFilter
from repro.aru.operators import Operator, operator_name, resolve


class BackwardStpVector:
    """The per-node ``backwardSTP`` vector with optional per-slot filtering
    and optional staleness-based slot eviction.

    Parameters
    ----------
    ttl:
        Staleness bound in seconds; ``None`` (default) disables eviction.
    time_fn:
        Clock read used to stamp updates and judge staleness. Required
        when ``ttl`` is set.
    """

    def __init__(self, op: Union[str, Operator, None] = None,
                 summary_filter_factory: Optional[FilterFactory] = None,
                 ttl: Optional[float] = None,
                 time_fn: Optional[Callable[[], float]] = None) -> None:
        if ttl is not None and ttl <= 0:
            raise ValueError(f"staleness ttl must be positive, got {ttl}")
        if ttl is not None and time_fn is None:
            raise ValueError("a ttl requires a time_fn to judge staleness")
        self.op = resolve(op)
        self._filter_factory = summary_filter_factory or NoFilter
        self._values: Dict[object, float] = {}
        self._filters: Dict[object, object] = {}
        self.ttl = ttl
        self._time_fn = time_fn
        self._last_heard: Dict[object, float] = {}
        #: Slots evicted for staleness so far (diagnostics).
        self.evictions = 0

    def update(self, conn_id: object, value: float) -> None:
        """Store a received summary-STP for connection ``conn_id``.

        The per-connection filter (extension; identity by default) smooths
        the sequence of values received on that slot.
        """
        if value < 0:
            raise ValueError(f"negative summary-STP: {value}")
        filt = self._filters.get(conn_id)
        if filt is None:
            filt = self._filter_factory()
            self._filters[conn_id] = filt
        self._values[conn_id] = float(filt(value))
        if self.ttl is not None:
            self._last_heard[conn_id] = self._time_fn()

    def evict(self, conn_id: object) -> bool:
        """Drop one slot (e.g. its consumer was unregistered).

        Returns whether the slot existed. The slot's filter state goes
        with it: a restarted consumer starts cold, re-propagating its
        summary from scratch.
        """
        existed = self._values.pop(conn_id, None) is not None
        self._filters.pop(conn_id, None)
        self._last_heard.pop(conn_id, None)
        return existed

    def clear(self) -> None:
        """Drop every slot and its filter state (cold restart)."""
        self._values.clear()
        self._filters.clear()
        self._last_heard.clear()

    def evict_stale(self) -> List[object]:
        """Evict every slot older than the TTL; returns the evicted ids."""
        if self.ttl is None or not self._values:
            return []
        now = self._time_fn()
        stale = [cid for cid, heard in self._last_heard.items()
                 if now - heard > self.ttl]
        for cid in stale:
            self.evict(cid)
            self.evictions += 1
        return stale

    def compressed(self) -> Optional[float]:
        """``op(backwardSTP)``, or ``None`` when no (live) value exists."""
        if self.ttl is not None:
            self.evict_stale()
        if not self._values:
            return None
        return float(self.op(list(self._values.values())))

    def snapshot(self) -> Dict[object, float]:
        """Copy of the current vector (reports/debugging)."""
        return dict(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BackwardStpVector op={operator_name(self.op)} {self._values}>"
