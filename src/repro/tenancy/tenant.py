"""Tenants: independently-owned applications sharing one cluster.

A :class:`TenantSpec` wraps any app (builtin name, ``TaskGraph``, or
``StampedeApp``) with everything the cluster scheduler needs to place
and account for it: a declared per-thread resource demand (the R-Storm
CPU/memory/bandwidth vector), a priority and fairness weight, a private
control policy and RNG seed, and an arrival/departure window on the
simulation clock. The :class:`Tenant` runtime object tracks the spec
through the admission state machine.

Tenants are namespaced: every graph node of tenant ``t`` appears in the
shared runtime graph as ``t/<local-name>`` (or under the ``namespace``
its spec names), so any number of tenants —
including many instances of the *same* app — coexist in one engine run,
contending for the same nodes and links.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.apps import APPS, app_config_from_dict
from repro.errors import ConfigError
from repro.schema import as_object, build

#: Tenant admission states.
PENDING = "pending"      #: created, not yet offered to the scheduler
QUEUED = "queued"        #: over capacity; waiting for departures
RUNNING = "running"      #: placed and executing
REJECTED = "rejected"    #: over capacity under ``admission="reject"``
DEPARTED = "departed"    #: left voluntarily (departure time or teardown)
EVICTED = "evicted"      #: lost its placement to a fault, not re-placeable

TENANT_STATES = (PENDING, QUEUED, RUNNING, REJECTED, DEPARTED, EVICTED)


@dataclass(frozen=True)
class ResourceDemand:
    """Declared per-thread demand: the R-Storm resource vector.

    These are *reservations* the scheduler packs against node budgets
    (:attr:`~repro.cluster.spec.NodeSpec.capacity_vector`) — they gate
    admission and placement, never the data path: a tenant that bursts
    past its declaration simply contends like any other thread.
    """

    cpu: float = 0.5
    mem_bytes: int = 32 * 2**20
    bandwidth_bps: int = 10_000_000

    def __post_init__(self) -> None:
        if self.cpu < 0 or self.mem_bytes < 0 or self.bandwidth_bps < 0:
            raise ConfigError(
                f"resource demand must be non-negative, got "
                f"({self.cpu}, {self.mem_bytes}, {self.bandwidth_bps})"
            )

    def as_vector(self) -> Tuple[float, float, float]:
        """``(cpu, mem_bytes, bandwidth_bps)`` as floats."""
        return (float(self.cpu), float(self.mem_bytes),
                float(self.bandwidth_bps))


@dataclass(frozen=True)
class TenantSpec:
    """One tenant, declaratively.

    Attributes
    ----------
    name:
        Unique tenant identifier; also the default namespace prefix.
        Must not contain ``/`` (the namespace separator).
    app / app_config:
        What to run, in :class:`~repro.experiment.ExperimentSpec` terms:
        a builtin app name (with optional per-app config) or a
        ``TaskGraph``/``StampedeApp`` instance.
    policy / scale_policy:
        The tenant's private ARU rate policy and elastic-scale policy
        (names resolve through the control-plane registries). Each
        tenant gets its own feedback plane — one tenant's backwardSTP
        never leaks into another's.
    priority:
        Admission priority (higher admits first); ties break by
        declaration order.
    weight:
        Fairness weight for the weighted Jain index (> 0).
    seed:
        Private RNG seed for the tenant's task bodies. ``None`` derives
        one from the run seed and the tenant name, so equal-seeded
        tenants of the same app draw *identical* workloads.
    arrival / departure:
        Simulated seconds when the tenant arrives / departs. Arrival 0
        admits before the run starts; ``departure=None`` stays to the
        horizon.
    demand / thread_demands:
        Default per-thread :class:`ResourceDemand`, with optional
        per-thread (local name) overrides.
    namespace:
        Graph-name prefix; ``None`` means ``f"{name}/"``. The empty
        string runs the tenant unprefixed — at most one such tenant per
        run (used by the single-tenant equivalence contract).
    """

    name: str
    app: Any = "tracker"
    app_config: Any = None
    policy: Any = None
    scale_policy: Any = None
    priority: int = 0
    weight: float = 1.0
    seed: Optional[int] = None
    arrival: float = 0.0
    departure: Optional[float] = None
    demand: ResourceDemand = field(default_factory=ResourceDemand)
    thread_demands: Mapping[str, ResourceDemand] = field(default_factory=dict)
    namespace: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if "/" in self.name:
            raise ConfigError(
                f"tenant name {self.name!r} must not contain '/'"
            )
        if self.weight <= 0:
            raise ConfigError(
                f"tenant {self.name!r}: weight must be > 0, got {self.weight}"
            )
        if self.arrival < 0:
            raise ConfigError(
                f"tenant {self.name!r}: negative arrival {self.arrival}"
            )
        if self.departure is not None and self.departure <= self.arrival:
            raise ConfigError(
                f"tenant {self.name!r}: departure {self.departure} must be "
                f"after arrival {self.arrival}"
            )
        if not isinstance(self.demand, ResourceDemand):
            raise ConfigError(
                f"tenant {self.name!r}: demand must be a ResourceDemand"
            )
        for thread, demand in dict(self.thread_demands).items():
            if not isinstance(demand, ResourceDemand):
                raise ConfigError(
                    f"tenant {self.name!r}: thread_demands[{thread!r}] must "
                    f"be a ResourceDemand"
                )
        if self.namespace is not None and self.namespace != "":
            if not self.namespace.endswith("/"):
                raise ConfigError(
                    f"tenant {self.name!r}: namespace must end with '/' "
                    f"(or be empty), got {self.namespace!r}"
                )

    def with_(self, **changes) -> "TenantSpec":
        return replace(self, **changes)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any],
                  where: str = "tenant") -> "TenantSpec":
        """The spec-file form: an object whose keys are this class's
        fields.

        ``app_config`` is read as the named app's config, ``demand`` and
        each ``thread_demands`` value as a :class:`ResourceDemand` (whose
        ``mem_mb`` / ``bandwidth_mbps`` spell the other units), and
        ``policy`` through :func:`~repro.control.resolve_policy`.
        """
        from repro.control.registry import resolve_policy

        app = raw.get("app", "tracker") if isinstance(raw, Mapping) else None
        return build(cls, raw, where, parse={
            "app_config": lambda value: app_config_from_dict(
                app, value, f"{where}.app_config"),
            "policy": resolve_policy,
            "demand": lambda value: build(ResourceDemand, value,
                                          f"{where}.demand"),
            "thread_demands": lambda value: {
                thread: build(ResourceDemand, demand,
                              f"{where}.thread_demands[{thread!r}]")
                for thread, demand in as_object(
                    value, f"{where}.thread_demands").items()},
        })

    @property
    def prefix(self) -> str:
        """The graph-name prefix this tenant's nodes live under."""
        return f"{self.name}/" if self.namespace is None else self.namespace

    # -- resolution ------------------------------------------------------
    def resolve_graph(self):
        """Build this tenant's private task graph."""
        from repro.runtime.api import StampedeApp
        from repro.runtime.graph import TaskGraph

        app = self.app
        if isinstance(app, StampedeApp):
            app = app.graph
        if isinstance(app, TaskGraph):
            if self.app_config is not None:
                raise ConfigError(
                    f"tenant {self.name!r}: app_config only applies when "
                    f"app is a builtin name"
                )
            return app
        build, _ = APPS.get(app)
        return build(self.app_config)

    def derive_seed(self, root_seed: int) -> int:
        """The tenant's task-RNG seed (explicit, or derived stably)."""
        if self.seed is not None:
            return self.seed
        digest = hashlib.sha256(
            f"{root_seed}:tenant.{self.name}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big")


class Tenant:
    """Live admission-state for one :class:`TenantSpec`.

    Once built it is also the :class:`~repro.runtime.runtime.Scope` its
    threads and buffers are wired for (``name``, ``prefix``, ``aru``,
    ``scale``, ``rngs``, ``bus``).
    """

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.prefix = spec.prefix
        self.state = PENDING
        #: The private graph: built at the first admission attempt and
        #: dropped by the first merge into the shared graph, which holds
        #: the tenant's nodes from then on (:meth:`own_graph`).
        self.graph = None
        self.aru = None
        self.scale = None
        self.rngs = None
        #: The tenant's private feedback plane.
        self.bus = None
        #: local graph name -> namespaced shared-graph name (post-merge).
        self.mapping: Dict[str, str] = {}
        self.threads: Tuple[str, ...] = ()
        self.buffers: Tuple[str, ...] = ()
        self.stages: Tuple[str, ...] = ()
        #: Namespaced sink threads, decided within the private graph.
        self.sinks: Tuple[str, ...] = ()
        #: namespaced thread -> cluster node (and the local-keyed twin the
        #: scheduler's reservation ledger is keyed by).
        self.placement: Dict[str, str] = {}
        self.placement_local: Dict[str, str] = {}
        self.demands: Dict[str, ResourceDemand] = {}
        self.admitted_at: Optional[float] = None
        self.departed_at: Optional[float] = None
        #: When the tenant last entered the admission queue (None while
        #: not queued); arbiters read it to detect starvation.
        self.queued_at: Optional[float] = None
        #: Placement-holding seconds accumulated over *completed*
        #: residencies — a revoked-then-readmitted tenant's goodput is
        #: computed over everything it actually held, not just the last
        #: window.
        self.prior_residence = 0.0
        #: Times this tenant's reservation was revoked by an arbiter.
        self.revocations = 0
        #: Times this tenant was migrated (defrag / re-balance).
        self.migrations = 0
        #: Free-form note for the last state transition (e.g. crash node).
        self.detail = ""

    @property
    def priority(self) -> int:
        return self.spec.priority

    @property
    def weight(self) -> float:
        return self.spec.weight

    def build(self, root_seed: int, time_fn=None) -> None:
        """Resolve graph/policies/RNG/feedback plane once (idempotent);
        ``time_fn`` is the admitting runtime's clock."""
        if self.bus is not None:
            return
        from repro.control.propagation import FeedbackBus
        from repro.control.registry import resolve_policy, resolve_scale_policy
        from repro.sim.rng import RngRegistry

        graph = self.spec.resolve_graph()
        if not isinstance(self.spec.app, str):
            graph.validate()  # a built-in builder validated its own
        self.graph = graph
        self.aru = resolve_policy(self.spec.policy)
        self.scale = resolve_scale_policy(self.spec.scale_policy)
        self.rngs = RngRegistry(seed=self.spec.derive_seed(root_seed))
        self.bus = FeedbackBus(self.aru, time_fn=time_fn)
        self.demands = {
            t: self.demand_for(t) for t in graph.threads()
        }

    def demand_for(self, local_thread: str) -> ResourceDemand:
        """The declared demand of one thread (per-thread override wins)."""
        return self.spec.thread_demands.get(local_thread, self.spec.demand)

    def own_graph(self):
        """The private graph: the one built, until the first merge drops
        it, then a fresh build of the spec (re-placement only)."""
        return self.graph if self.graph is not None \
            else self.spec.resolve_graph()

    def neighbors(self, graph=None) -> Dict[str, FrozenSet[str]]:
        """Thread adjacency (shared buffer = neighbor) for colocation,
        over ``graph`` (default :meth:`own_graph`)."""
        if graph is None:
            graph = self.own_graph()
        adjacency: Dict[str, set] = {t: set() for t in graph.threads()}
        for buffer in graph.buffers():
            producers = graph.producers_of(buffer)
            consumers = graph.consumers_of(buffer)
            for p in producers:
                for c in consumers:
                    if p != c:
                        adjacency[p].add(c)
                        adjacency[c].add(p)
        return {t: frozenset(n) for t, n in adjacency.items()}

    def local_name(self, shared_name: str) -> str:
        """Strip this tenant's namespace prefix from a shared-graph name."""
        if self.prefix and shared_name.startswith(self.prefix):
            return shared_name[len(self.prefix):]
        return shared_name

    def residence(self, horizon: float) -> float:
        """Seconds the tenant held a placement (0 if never admitted).

        Cumulative across residencies: revocation closes a window into
        :attr:`prior_residence` and readmission opens a new one.
        """
        total = self.prior_residence
        if self.state == RUNNING and self.admitted_at is not None:
            total += max(0.0, horizon - self.admitted_at)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tenant {self.name!r} {self.state}>"
