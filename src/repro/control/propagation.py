"""The feedback bus: connection-level transport of summary values.

The paper piggybacks feedback on the existing data path (§3.3.2): a
consumer's summary-STP rides upstream on every ``get``, a buffer's
compressed summary rides back to the producer on every ``put``. This
module owns that transport:

* :class:`FeedbackEndpoint` — the buffer-side half: a backwardSTP
  vector over the buffer's consumer connections. It receives consumer
  summaries, advertises the compressed value to producers (a channel or
  queue has no period of its own, so its summary *is* the compressed
  vector), and detaches slots when consumers unregister (thread
  restart) — the seam fault recovery and staleness eviction hook into;
* :class:`FeedbackBus` — the per-runtime factory that decides, from the
  :class:`~repro.aru.config.AruConfig`, whether buffers get endpoints at
  all (ARU off builds none, reproducing the No-ARU baseline with zero
  transport overhead) and with which compression operator, summary
  filter, and staleness TTL.

Channels and queues talk only to their endpoint.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.aru.config import AruConfig
from repro.aru.filters import resolve_factory
from repro.aru.operators import Operator
from repro.aru.summary import BackwardStpVector


class FeedbackEndpoint:
    """Buffer-side feedback port over one :class:`BackwardStpVector`."""

    def __init__(self, backward: BackwardStpVector) -> None:
        self.backward = backward

    def receive(self, conn_id: object, value: float) -> None:
        """A consumer summary arrived, piggybacked on a get."""
        self.backward.update(conn_id, value)

    def advertise(self) -> Optional[float]:
        """The compressed summary to return to a producer on a put."""
        return self.backward.compressed()

    def detach(self, conn_id: object) -> bool:
        """Drop one consumer's slot (unregistration / thread restart)."""
        return self.backward.evict(conn_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FeedbackEndpoint {self.backward!r}>"


class FeedbackBus:
    """Builds the feedback plane of one runtime from its ARU config."""

    def __init__(self, config: AruConfig,
                 time_fn: Optional[Callable[[], float]] = None) -> None:
        self.config = config
        self.time_fn = time_fn

    def endpoint(self, compress_op: Union[str, Operator, None] = None
                 ) -> Optional[FeedbackEndpoint]:
        """A new buffer's feedback endpoint, or None when ARU is off.
        ``compress_op`` overrides the config's channel default (the
        optional argument the paper adds to ``spd_chan_alloc()``)."""
        cfg = self.config
        if not cfg.enabled:
            return None
        return FeedbackEndpoint(BackwardStpVector(
            compress_op or cfg.default_channel_op,
            resolve_factory(cfg.summary_filter),
            ttl=cfg.staleness_ttl,
            time_fn=self.time_fn,
        ))
