"""Dead-timestamp GC — the collector under every experiment in the paper.

Reimplemented from the description in the paper and in Harel, Mandviwala,
Knobe & Ramachandran, *"Dead timestamp identification in Stampede"* (ICPP
2002): each node propagates information about locally-dead timestamps to
its neighbours. For a channel, the per-consumer guarantee is the get
cursor: get-latest requests are strictly increasing, so consumer *c* will
never request any ``ts <= c.last_got``. An item is dead once **every**
consumer's cursor has passed it:

``dead(item)  <=>  item.ts <= min over consumers(last_got)``

This identifies both consumed-and-passed items and *skipped* items as
garbage — the latter being precisely what reachability GC can never
reclaim. Identification is O(dead items) per pass, driven entirely by the
cursor updates piggybacked on normal channel traffic, and a pass runs
only on an event that can change its answer. The buffer remembers the
last pass's threshold; while no pass is due, **every stored item at or
below it is referenced and doomed** (``release`` frees it). A pass
becomes due when a put lands at or below the threshold (dead on
arrival), a get moves the cursor that was the minimum, or a consumer
(un)registers or resumes — so a cursor may move only in ``commit_get``
and ``Buffer.resume_consumer``, under a shell's lock.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.errors import ConfigError
from repro.gc.base import GarbageCollector


class DeadTimestampGC(GarbageCollector):
    """Free items once every consumer's get cursor has passed them.

    Parameters
    ----------
    interval:
        Minimum simulated seconds between collection passes per channel
        (0 = collect eagerly on every put/get, the library default). The
        paper-era implementation ran identification as periodic runtime
        work, so its footprints carry collection lag; the GC-lag ablation
        sweeps this knob to show how lag inflates the mean footprint
        without changing any other behaviour.
    """

    name = "dgc"

    def __init__(self, interval: float = 0.0) -> None:
        if interval < 0:
            raise ConfigError(f"negative GC interval: {interval}")
        self.interval = float(interval)
        self._last_pass: Dict[str, float] = {}

    def on_put(self, channel, item) -> None:
        if item.ts <= channel._gc_threshold:  # dead on arrival
            channel._gc_due = True

    def on_get(self, channel, conn, item) -> None:
        if channel._cursor_from <= channel._gc_threshold:  # the minimum moved
            channel._gc_due = True

    def dead_items(self, channel) -> Iterable[object]:
        # No consumer => no guarantee ever arrives; nothing is provably
        # dead. (A consumerless channel is pure waste by construction
        # and shows up as such in the resource metrics.)
        threshold = min([conn.last_got for conn in channel.in_conns],
                        default=-1)
        dead = channel.items_upto(threshold)
        if dead and self.interval > 0.0:
            # Lazy mode: a *reclaiming* pass runs at most once per interval
            # per channel (identifying an empty dead set is cheap and free),
            # and stays due: one over what it only doomed takes a slot too.
            now = channel.engine.now
            last = self._last_pass.get(channel.name)
            if last is not None and now - last < self.interval:
                return ()
            self._last_pass[channel.name] = now
            return dead
        channel._gc_threshold = threshold
        channel._gc_due = False
        return dead
