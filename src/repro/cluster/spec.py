"""Declarative cluster hardware specifications.

The paper's testbed: a 17-node cluster of 8-way 550 MHz Pentium-III Xeon
SMPs (3.69 GB each) on Gigabit Ethernet. Experiments use two
configurations:

* **config 1** — all five tracker tasks (six threads) on one node;
* **config 2** — tasks spread over five nodes, channels co-located with
  their producers.

:func:`config1_spec` and :func:`config2_spec` build those two shapes.
Every shape a spec can name — those two plus the multi-tenant
:func:`uniform_spec` and :func:`heterogeneous_spec` — is registered in
:data:`CLUSTERS`, and :func:`cluster_spec` is the one place a cluster
value resolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.registry import Registry
from repro.schema import build

#: Gigabit Ethernet effective payload bandwidth, bytes/second. We use a
#: conservative ~80 % of line rate to account for framing and TCP overhead.
GIGABIT_BPS = int(1e9 * 0.80 / 8)

#: One-way small-message latency on the paper-era cluster interconnect.
DEFAULT_LATENCY_S = 100e-6


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one SMP node.

    Parameters
    ----------
    name:
        Unique node identifier.
    ncpus:
        Number of CPUs in the node's pool.
    mem_bytes:
        Physical memory (used only for occupancy reporting / sanity caps).
    smp_contention_alpha:
        Memory-bus contention coefficient: a compute segment running while
        ``r`` other threads are runnable on the node is inflated by
        ``1 + alpha * r``. The paper's config-1 runs noticeably slower
        than config-2 (3.30 vs 4.27 fps without ARU) because six threads
        share one node; this coefficient is the knob that reproduces it.
    sched_noise_cv:
        Coefficient of variation of multiplicative OS-scheduling noise
        applied to each compute segment (the paper's §3.3.2 "variances in
        the OS scheduling of threads" that make summary-STP noisy).
    mem_pressure_per_mb:
        Cache/VM pressure coefficient: compute segments are additionally
        inflated by ``1 + coeff * resident_channel_megabytes`` (see
        :func:`repro.cluster.contention.memory_pressure_factor`). Nonzero
        on the shared config-1 node, where the paper's ARU-min throughput
        gain comes from relieving exactly this pressure.
    bandwidth_bps:
        The node's NIC budget, bytes/second — a *declarative* resource
        budget for R-Storm-style placement (see :mod:`repro.tenancy`),
        not a data-path rate limit (wire time stays the link's job).
        Together with ``ncpus`` and ``mem_bytes`` this forms the
        per-node CPU/memory/bandwidth vector the scheduler packs
        against.
    """

    name: str
    ncpus: int = 8
    mem_bytes: int = int(3.69 * 2**30)
    smp_contention_alpha: float = 0.0
    sched_noise_cv: float = 0.0
    mem_pressure_per_mb: float = 0.0
    bandwidth_bps: int = GIGABIT_BPS

    def __post_init__(self) -> None:
        if self.ncpus < 1:
            raise ConfigError(f"node {self.name!r}: ncpus must be >= 1")
        if self.mem_bytes <= 0:
            raise ConfigError(f"node {self.name!r}: mem_bytes must be positive")
        if self.smp_contention_alpha < 0:
            raise ConfigError(f"node {self.name!r}: negative contention alpha")
        if self.sched_noise_cv < 0:
            raise ConfigError(f"node {self.name!r}: negative scheduling noise")
        if self.mem_pressure_per_mb < 0:
            raise ConfigError(f"node {self.name!r}: negative memory pressure")
        if self.bandwidth_bps <= 0:
            raise ConfigError(
                f"node {self.name!r}: bandwidth_bps must be positive"
            )

    @property
    def capacity_vector(self) -> Tuple[float, int, int]:
        """The placement budget ``(ncpus, mem_bytes, bandwidth_bps)``."""
        return (float(self.ncpus), self.mem_bytes, self.bandwidth_bps)


@dataclass(frozen=True)
class LinkSpec:
    """Point-to-point link model: ``latency + size/bandwidth`` store-and-forward."""

    latency_s: float = DEFAULT_LATENCY_S
    bandwidth_bps: int = GIGABIT_BPS

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ConfigError("negative link latency")
        if self.bandwidth_bps <= 0:
            raise ConfigError("bandwidth must be positive")

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` over this link (excluding queueing)."""
        if nbytes < 0:
            raise ConfigError("negative transfer size")
        return self.latency_s + nbytes / self.bandwidth_bps


@dataclass(frozen=True)
class PairLink:
    """One per-directed-pair link override inside a :class:`ClusterSpec`.

    The default interconnect is uniform (``ClusterSpec.link``); a
    heterogeneous fabric declares exceptions as ``PairLink`` entries —
    e.g. a slow uplink between two racks.
    """

    src: str
    dst: str
    spec: LinkSpec = field(default_factory=LinkSpec)

    def __post_init__(self) -> None:
        if not self.src or not self.dst:
            raise ConfigError("link endpoints must be non-empty node names")
        if self.src == self.dst:
            raise ConfigError(f"no self-link: {self.src!r} -> {self.dst!r}")


@dataclass(frozen=True)
class ClusterSpec:
    """A set of nodes plus an interconnect.

    The interconnect is uniform (``link``) unless per-directed-pair
    :class:`PairLink` overrides are declared in ``links``. Validation
    rejects duplicate node names and duplicate link endpoints with a
    clear :class:`~repro.errors.ConfigError` — collisions must never
    silently shadow an earlier declaration.
    """

    nodes: tuple  # tuple[NodeSpec, ...]
    link: LinkSpec = field(default_factory=LinkSpec)
    name: str = "cluster"
    links: tuple = ()  # tuple[PairLink, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigError("cluster needs at least one node")
        names = [n.name for n in self.nodes]
        seen: set = set()
        for n in names:
            if n in seen:
                raise ConfigError(
                    f"cluster {self.name!r}: duplicate node name {n!r}"
                )
            seen.add(n)
        endpoints: set = set()
        for pair in self.links:
            if not isinstance(pair, PairLink):
                raise ConfigError(
                    f"cluster {self.name!r}: links must be PairLink "
                    f"instances, got {pair!r}"
                )
            for end in (pair.src, pair.dst):
                if end not in seen:
                    raise ConfigError(
                        f"cluster {self.name!r}: link endpoint {end!r} is "
                        f"not a node (nodes: {sorted(seen)})"
                    )
            key = (pair.src, pair.dst)
            if key in endpoints:
                raise ConfigError(
                    f"cluster {self.name!r}: duplicate link "
                    f"{pair.src!r} -> {pair.dst!r}"
                )
            endpoints.add(key)

    @property
    def node_names(self) -> List[str]:
        return [n.name for n in self.nodes]

    def node_spec(self, name: str) -> NodeSpec:
        for n in self.nodes:
            if n.name == name:
                return n
        raise ConfigError(f"no node named {name!r} in {self.name!r}")

    def link_spec(self, src: str, dst: str) -> LinkSpec:
        """The :class:`LinkSpec` for the directed pair ``src -> dst``.

        Per-pair overrides win; everything else uses the uniform
        ``link``.
        """
        for pair in self.links:
            if pair.src == src and pair.dst == dst:
                return pair.spec
        return self.link


def config1_spec(
    *,
    ncpus: int = 8,
    smp_contention_alpha: float = 0.06,
    sched_noise_cv: float = 0.08,
    mem_pressure_per_mb: float = 0.018,
) -> ClusterSpec:
    """Paper config 1: one 8-way SMP node hosting every task and channel."""
    return ClusterSpec(
        nodes=(
            NodeSpec(
                name="node0",
                ncpus=ncpus,
                smp_contention_alpha=smp_contention_alpha,
                sched_noise_cv=sched_noise_cv,
                mem_pressure_per_mb=mem_pressure_per_mb,
            ),
        ),
        name="config1-1node",
    )


def config2_spec(
    *,
    n_nodes: int = 5,
    ncpus: int = 8,
    sched_noise_cv: float = 0.05,
    link: LinkSpec | None = None,
) -> ClusterSpec:
    """Paper config 2: five nodes, one task per node, Gigabit interconnect.

    Per-node contention is zero (each node runs a single task thread);
    scheduling noise is milder than config 1 since nodes are not shared.
    """
    return ClusterSpec(
        nodes=tuple(
            NodeSpec(
                name=f"node{i}",
                ncpus=ncpus,
                smp_contention_alpha=0.0,
                sched_noise_cv=sched_noise_cv,
            )
            for i in range(n_nodes)
        ),
        link=link or LinkSpec(),
        name=f"config2-{n_nodes}node",
    )


def uniform_spec(
    n_nodes: int = 4,
    *,
    ncpus: int = 8,
    mem_bytes: int = int(3.69 * 2**30),
    bandwidth_bps: int = GIGABIT_BPS,
    sched_noise_cv: float = 0.0,
    link: Optional[LinkSpec] = None,
    name: Optional[str] = None,
) -> ClusterSpec:
    """``n_nodes`` identical nodes — the multi-tenant substrate shape.

    Unlike the paper configs this defaults to *quiet* nodes (no
    contention/noise), so fleet benchmarks measure placement and
    scheduling effects rather than per-node stochastic inflation.
    """
    if n_nodes < 1:
        raise ConfigError(f"need at least one node, got {n_nodes}")
    return ClusterSpec(
        nodes=tuple(
            NodeSpec(
                name=f"node{i}",
                ncpus=ncpus,
                mem_bytes=mem_bytes,
                bandwidth_bps=bandwidth_bps,
                sched_noise_cv=sched_noise_cv,
            )
            for i in range(n_nodes)
        ),
        link=link or LinkSpec(),
        name=name or f"uniform-{n_nodes}node",
    )


def heterogeneous_spec(
    *,
    n_big: int = 4,
    n_small: int = 4,
    big_ncpus: int = 16,
    small_ncpus: int = 2,
    big_bandwidth_bps: int = GIGABIT_BPS,
    small_bandwidth_bps: int = GIGABIT_BPS // 8,
    mem_bytes: int = int(3.69 * 2**30),
    link: Optional[LinkSpec] = None,
    name: Optional[str] = None,
) -> ClusterSpec:
    """A mixed fleet: ``n_big`` fat nodes plus ``n_small`` thin ones.

    The shape where placement policy matters: capacity-blind strategies
    treat ``small`` nodes like ``big`` ones and overload them, while
    resource-aware packing respects the per-node budget vectors. Small
    nodes get proportionally less memory and NIC bandwidth too.
    """
    if n_big < 0 or n_small < 0 or n_big + n_small < 1:
        raise ConfigError("need at least one node")
    big = tuple(
        NodeSpec(name=f"big{i}", ncpus=big_ncpus, mem_bytes=mem_bytes,
                 bandwidth_bps=big_bandwidth_bps)
        for i in range(n_big)
    )
    small = tuple(
        NodeSpec(
            name=f"small{i}",
            ncpus=small_ncpus,
            mem_bytes=max(1, mem_bytes * small_ncpus // max(1, big_ncpus)),
            bandwidth_bps=small_bandwidth_bps,
        )
        for i in range(n_small)
    )
    return ClusterSpec(
        nodes=big + small,
        link=link or LinkSpec(),
        name=name or f"hetero-{n_big}big-{n_small}small",
    )


CLUSTERS = Registry("cluster")
CLUSTERS.register("config1", config1_spec,
                  help="the paper's config 1: every tracker task on one "
                       "8-way SMP node")
CLUSTERS.register("config2", config2_spec,
                  help="the paper's config 2: five nodes, one tracker task "
                       "per node")
CLUSTERS.register("uniform", uniform_spec,
                  help="n_nodes identical quiet nodes (default 4)")
CLUSTERS.register("heterogeneous", heterogeneous_spec,
                  help="n_big fat nodes plus n_small thin ones")


def cluster_spec(value: Any) -> ClusterSpec:
    """A :class:`ClusterSpec`, a node count, a registered name, or
    ``{"kind": name, <factory keywords>}`` -> the cluster to run on.

    A count is that many :func:`uniform_spec` nodes; an object without
    ``kind`` is a uniform one.
    """
    if isinstance(value, ClusterSpec):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return uniform_spec(value)
    if isinstance(value, str):
        return CLUSTERS.get(value)()
    if not isinstance(value, Mapping):
        raise ConfigError(
            f"cluster must be a ClusterSpec, a node count, a name or an "
            f"object; got {value!r}")
    raw = dict(value)
    kind = raw.pop("kind", "uniform")
    return build(CLUSTERS.get(kind), raw, f"cluster (kind={kind!r})")
