"""Simulated interconnect: per-directed-pair serialized links.

A remote ``put`` ships the item over the link between the producer's node
and the channel's node. Each directed node pair owns one :class:`Link`
that serializes its transfers (store-and-forward); local transfers cost
nothing. Gigabit-Ethernet-scale parameters come from
:class:`~repro.cluster.spec.LinkSpec`.

Fault surface (``docs/fault-model.md``): a link can be *degraded* (its
transfer times inflate by a factor), *partitioned* (transfers raise
:class:`~repro.errors.LinkDown`, or block until restore in ``"block"``
mode), or *lossy* (each completed transfer is dropped with a seeded
probability, raising :class:`~repro.errors.MessageDropped`). A healthy
link takes none of these paths, so fault-free runs are bit-identical to
the pre-fault-model behaviour.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional, Tuple

from repro.cluster.spec import ClusterSpec, LinkSpec
from repro.errors import ConfigError, LinkDown, MessageDropped
from repro.obs.hub import NULL_HUB, link_series
from repro.sim.engine import Engine
from repro.sim.resources import Resource, WaitQueue

#: Observer callback: ``(symptom, link_name, **info)``. Symptoms emitted
#: here are ``link_blocked`` (a transfer is parked on a partitioned link
#: in block mode) and ``transfer_ok`` (a transfer completed; ``duration``
#: and ``nominal`` let a detector infer degradation).
LinkObserver = Callable[..., None]


class Link:
    """One serialized point-to-point link."""

    def __init__(self, engine: Engine, spec: LinkSpec, name: str = "",
                 obs=NULL_HUB) -> None:
        self.engine = engine
        self.spec = spec
        self.name = name
        self.obs = obs
        #: The one telemetry series a transfer pushes (its totals are
        #: read: :func:`~repro.obs.hub.link_series`); None with metrics off.
        self._hist = (obs.metrics.histogram("repro_link_transfer_seconds",
                                            {"link": name})
                      if obs.metrics_on else None)
        self._wire = Resource(engine, capacity=1, name=f"link.{name}")
        #: Total bytes moved over this link, and the transfers that moved
        #: them (both counted on the way out, a transfer cut short too).
        self.bytes_transferred = 0
        self.transfers = 0
        #: Total seconds the wire was occupied.
        self.busy_time = 0.0
        # -- fault state ----------------------------------------------------
        #: Transfer-time inflation; 1.0 = nominal bandwidth.
        self.degrade_factor = 1.0
        #: Whether the link is partitioned (no traffic passes).
        self.partitioned = False
        #: ``"fail"``: transfers raise LinkDown; ``"block"``: they park
        #: until :meth:`restore`.
        self.partition_mode = "fail"
        #: Per-transfer loss probability (0.0 = reliable).
        self.drop_probability = 0.0
        self._drop_rng = None
        self._restored = WaitQueue(engine)
        #: Failure-detection callback (see :data:`LinkObserver`).
        self.observer: Optional[LinkObserver] = None
        #: Transfers lost to message-drop faults.
        self.transfers_dropped = 0
        #: Transfers that parked on a blocked partition.
        self.transfers_blocked = 0

    # -- fault control ------------------------------------------------------
    @property
    def healthy(self) -> bool:
        return (not self.partitioned and self.degrade_factor == 1.0
                and self.drop_probability == 0.0)

    def degrade(self, factor: float) -> None:
        """Inflate transfer times by ``factor`` (>= 1)."""
        if factor < 1.0:
            raise ConfigError(f"degrade factor must be >= 1, got {factor}")
        self.degrade_factor = float(factor)

    def clear_degrade(self) -> None:
        self.degrade_factor = 1.0

    def partition(self, mode: str = "fail") -> None:
        """Stop all traffic until :meth:`clear_partition`/:meth:`restore`."""
        if mode not in ("fail", "block"):
            raise ConfigError(f"partition mode must be fail/block, got {mode!r}")
        self.partitioned = True
        self.partition_mode = mode

    def clear_partition(self) -> None:
        self.partitioned = False
        self._restored.notify_all()

    def set_message_drop(self, probability: float, rng) -> None:
        """Lose each future transfer with ``probability`` (seeded ``rng``)."""
        if not 0.0 <= probability <= 1.0:
            raise ConfigError(
                f"drop probability must be in [0, 1], got {probability}"
            )
        self.drop_probability = float(probability)
        self._drop_rng = rng if probability > 0.0 else None

    def clear_message_drop(self) -> None:
        self.drop_probability = 0.0
        self._drop_rng = None

    def restore(self) -> None:
        """Return the link to full health (clears every fault)."""
        self.clear_degrade()
        self.clear_message_drop()
        self.clear_partition()

    # -- data path ----------------------------------------------------------
    def transfer(self, nbytes: int) -> Generator:
        """Process generator: move ``nbytes``; returns the wire time.

        Honors the fault state: raises :class:`LinkDown` on a fail-mode
        partition, parks until restore on a block-mode partition, inflates
        the wire time when degraded, and raises :class:`MessageDropped`
        (after occupying the wire — the bytes were sent, then lost) on a
        lossy link.
        """
        while self.partitioned:
            if self.partition_mode == "fail":
                raise LinkDown(f"link {self.name} is partitioned")
            self.transfers_blocked += 1
            if self.observer is not None:
                self.observer("link_blocked", self.name)
            yield self._restored.wait(lambda: (not self.partitioned) or None)
        yield self._wire.request()
        nominal = self.spec.transfer_time(nbytes)
        duration = nominal * self.degrade_factor
        try:
            yield self.engine.timeout(duration)
        finally:
            self.bytes_transferred += nbytes
            self.transfers += 1
            self.busy_time += duration
            self._wire.release()
        obs = self.obs
        if obs.enabled:
            if obs.metrics_on:
                self._hist.observe(duration)
            if obs.spans_on:
                obs.span_transfer(self.name, nbytes, duration, self.engine.now)
        if (self._drop_rng is not None
                and self._drop_rng.random() < self.drop_probability):
            self.transfers_dropped += 1
            raise MessageDropped(f"message lost on link {self.name}")
        if self.observer is not None:
            self.observer("transfer_ok", self.name,
                          duration=duration, nominal=nominal)
        return duration


class Network:
    """Full-mesh network over a cluster's nodes, links created lazily."""

    def __init__(self, engine: Engine, spec: ClusterSpec, obs=NULL_HUB) -> None:
        self.engine = engine
        self.spec = spec
        self.obs = obs
        self._links: Dict[Tuple[str, str], Link] = {}
        self._observer: Optional[LinkObserver] = None
        if obs.enabled:
            obs.read(link_series, self._links)

    def link(self, src: str, dst: str) -> Link:
        """The directed link ``src -> dst`` (raises for loopback or an
        unknown node, checked when the link is first built)."""
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            if src == dst:
                raise ConfigError(f"no self-link: {src!r}")
            names = self.spec.node_names
            if src not in names or dst not in names:
                raise ConfigError(f"unknown node in link {src!r}->{dst!r}")
            link = Link(self.engine, self.spec.link_spec(src, dst),
                        name=f"{src}->{dst}", obs=self.obs)
            link.observer = self._observer
            self._links[key] = link
        return link

    def set_observer(self, observer: Optional[LinkObserver]) -> None:
        """Install a failure-detection observer on every link.

        Applies to links already created *and* to links created later
        (they are built lazily on first traffic).
        """
        self._observer = observer
        for link in self._links.values():
            link.observer = observer

    def transfer(self, src: str, dst: str, nbytes: int) -> Generator:
        """Process generator: move bytes from ``src`` to ``dst``.

        Local (same-node) transfers complete immediately with zero cost.
        """
        if src == dst:
            return 0.0
            yield  # pragma: no cover - makes this a generator
        wire_time = yield self.engine.process(self.link(src, dst).transfer(nbytes))
        return wire_time

    @property
    def total_bytes(self) -> int:
        """Bytes moved across all links so far."""
        return sum(l.bytes_transferred for l in self._links.values())
