"""Garbage-collector interface for channel storage.

Four live policies ship with the library (plus the postmortem IGC bound in
:mod:`repro.gc.igc`):

==========  =================================================================
``null``    never frees — upper-bound baseline for micro-tests
``ref``     traditional reachability: free once *every* consumer has
            actually consumed the item; skipped items are retained forever
            (the failure mode motivating the paper's §2 comparison)
``tgc``     transparent GC: free items older than the application-wide
            virtual-time low-water mark (global minimum over thread VTs)
``dgc``     dead-timestamp GC [Harel et al. 2002]: per-connection cursor
            guarantees — an item is dead once every consumer's get cursor
            has passed its timestamp. The paper's experiments always run
            on top of DGC.
==========  =================================================================

Collectors are notified on puts/gets and asked for the currently-dead
items (unless, like DGC, they cleared the channel's ``_gc_due`` flag until
an event can change the answer); the channel frees unreferenced dead
items immediately and dooms the rest (freed at release). A collector must
never report an item some consumer could still get — i.e. anything with
``ts > conn.last_got`` for any consumer connection is off limits. The
channel asserts this invariant in tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.channel import Channel
    from repro.runtime.connection import InputConnection
    from repro.runtime.item import Item


class GarbageCollector:
    """Base collector: never frees anything (the ``null`` policy)."""

    name = "null"

    def bind(self, runtime) -> None:
        """Give the collector access to runtime-global state (TGC needs
        the thread virtual times). Called once during runtime setup."""
        self.runtime = runtime

    def on_put(self, channel: "Channel", item: "Item") -> None:
        """A new item landed in ``channel``."""

    def on_get(self, channel: "Channel", conn: "InputConnection", item: "Item") -> None:
        """``conn`` consumed ``item`` from ``channel``."""

    def dead_items(self, channel: "Channel") -> Iterable["Item"]:
        """Items of ``channel`` that are provably dead right now."""
        return ()


class NullGC(GarbageCollector):
    """Explicit alias of the base no-op collector."""

    name = "null"
