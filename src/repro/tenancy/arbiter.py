"""Cross-tenant arbitration: continuous re-allocation of the cluster.

PR 8's scheduler only ever *packs*: once admitted, a tenant's
reservation is never revisited short of a crash, so a saturated cluster
stays misallocated while queued tenants starve and churn strands
capacity in fragments no multi-thread tenant can colocate into. An
:class:`Arbiter` closes that loop — a policy that periodically re-solves
the allocation on the DES clock and emits :class:`Decision`\\ s the
runtime executes:

* ``grow`` / ``shrink`` — revise a tenant's **elastic budget**, the
  CPU allowance (above its base reservations) that the scale plane's
  replica spawns draw from via
  :meth:`~repro.tenancy.ledger.ReservationLedger.request_headroom`;
* ``revoke`` — take a running tenant's reservation away entirely: its
  threads are torn down (buffers drained, reservations released) and
  the tenant re-queues, so a starved queued tenant can finally admit —
  weighted time-sharing of a scarce cluster;
* ``migrate`` — re-place a running tenant's threads (draining buffers
  and restarting them cold via the existing restart machinery), either
  to defragment stranded capacity or to move load off a hot node.

Built-in arbiters (the :data:`ARBITERS` registry):

* ``proportional`` — the weighted bi-criteria allocation of Benoit et
  al. (*Resource Allocation for Multiple Concurrent In-Network
  Stream-Processing Applications*): each active tenant is entitled to a
  weight-proportional share of cluster CPU, optionally biased toward
  tenants with standing backlog (the period/latency trade-off knob);
  budgets fill to the share, and tenants holding past their share are
  revoked when queued tenants starve.
* ``demand`` — the DRS-style estimator (Fu et al., *Dynamic Resource
  Scheduling for Real-Time Analytics over Fast Streams*): per-tenant
  offered load is estimated from *observed* arrival/service rates with
  the Erlang-C machinery reused from :mod:`repro.control.scale`, and
  budgets, revocations, and hot-node migrations follow measured demand
  rather than declared weights.
* ``null`` — never an opinion; installs no controller process (the
  differential baseline, same zero-cost idiom as ``null-scale``).

Arbiters are pure: ``decide(view)`` maps an :class:`ArbiterView`
snapshot to decisions with no runtime access, so unit tests drive them
with hand-built views. The :class:`ArbiterController` owns the DES
process, sensing, and actuation through the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Generator, List, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.registry import Registry
from repro.schema import build

_EPS = 1e-9

#: Decision kinds an arbiter may emit.
GROW = "grow"
SHRINK = "shrink"
REVOKE = "revoke"
MIGRATE = "migrate"
DECISION_KINDS = (GROW, SHRINK, REVOKE, MIGRATE)


@dataclass(frozen=True)
class Decision:
    """One arbitration act: what to do to which tenant, and why.

    ``cpu`` carries the *absolute* target budget for grow/shrink;
    ``exclude`` lists nodes a migration must avoid (empty = pure
    defragmentation through the placement strategy).
    """

    kind: str
    tenant: str
    cpu: float = 0.0
    exclude: Tuple[str, ...] = ()
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind not in DECISION_KINDS:
            raise ConfigError(
                f"unknown decision kind {self.kind!r}; "
                f"expected one of {DECISION_KINDS}"
            )


@dataclass(frozen=True)
class ArbiterConfig:
    """Declarative description of one run's arbitration stack.

    Attributes
    ----------
    policy:
        Registered arbiter name (``proportional`` / ``demand`` /
        ``null``).
    interval:
        Arbitration period in simulated seconds — one to two orders of
        magnitude above the ScalePolicy's, below tenant lifetimes.
    patience:
        Seconds a tenant must sit queued before revocations are
        considered on its behalf.
    min_residency:
        Running seconds a tenant is immune from revocation/migration
        after (re-)admission — the anti-thrash guard.
    target_utilization:
        The demand arbiter's per-core utilisation target (budgets are
        sized so observed load / granted CPU stays under it).
    latency_bias:
        The proportional arbiter's bi-criteria knob: 0 allocates purely
        by weight (throughput/period-fair); larger values shift share
        toward tenants with standing backlog (latency-biased).
    defrag:
        Emit defragmenting migrations when a queued tenant fits the
        cluster's aggregate free CPU but no single packing does.
    max_revocations:
        Revocations allowed per arbitration tick (blast-radius bound).
    name:
        Label for reports and registries.
    """

    policy: str = "proportional"
    interval: float = 1.0
    patience: float = 2.0
    min_residency: float = 3.0
    target_utilization: float = 0.7
    latency_bias: float = 0.0
    defrag: bool = True
    max_revocations: int = 1
    name: str = "proportional"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigError(f"interval must be positive, got {self.interval}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if self.min_residency < 0:
            raise ConfigError(
                f"min_residency must be >= 0, got {self.min_residency}"
            )
        if not (0 < self.target_utilization < 1):
            raise ConfigError(
                f"target_utilization must be in (0, 1), got "
                f"{self.target_utilization}"
            )
        if self.latency_bias < 0:
            raise ConfigError(
                f"latency_bias must be >= 0, got {self.latency_bias}"
            )
        if self.max_revocations < 0:
            raise ConfigError(
                f"max_revocations must be >= 0, got {self.max_revocations}"
            )

    def with_(self, **changes) -> "ArbiterConfig":
        return replace(self, **changes)


# -- the snapshot arbiters decide over --------------------------------------


@dataclass(frozen=True)
class TenantView:
    """One tenant's arbitration-relevant state at snapshot time."""

    name: str
    state: str
    priority: int
    weight: float
    #: CPU of placed base reservations (0 while queued).
    base_cpu: float
    #: Total CPU the tenant would reserve if admitted (demand sum).
    demand_cpu: float
    #: Declared threads (base parallelism, before elastic replicas).
    n_threads: int
    #: Granted elastic budget and the CPU drawn from it.
    budget: float
    budget_used: float
    #: Nodes currently hosting at least one of the tenant's threads.
    nodes: Tuple[str, ...] = ()
    admitted_at: Optional[float] = None
    queued_since: Optional[float] = None
    #: Σ per-thread (iteration rate × service time) over the window —
    #: the tenant's *measured* CPU consumption in cores.
    observed_cpu: float = 0.0
    #: Source-side arrival rate (items/s) and mean service time (s),
    #: the λ and s of the queueing model; None until measured.
    arrival_rate: float = 0.0
    service_time: Optional[float] = None
    #: Items waiting in the tenant's buffers (backlog proxy).
    backlog: int = 0
    #: Live replicas beyond the base threads (headroom draws).
    extra_replicas: int = 0


@dataclass(frozen=True)
class ArbiterView:
    """The cluster snapshot one arbitration decision is made over."""

    now: float
    #: Total and free CPU over non-failed nodes.
    total_cpu: float
    free_cpu: float
    #: node -> CPU capacity / committed / observed load (cores).
    node_capacity: Dict[str, float] = field(default_factory=dict)
    node_committed: Dict[str, float] = field(default_factory=dict)
    node_observed: Dict[str, float] = field(default_factory=dict)
    tenants: Tuple[TenantView, ...] = ()

    def running(self) -> List[TenantView]:
        return [t for t in self.tenants if t.state == "running"]

    def queued(self) -> List[TenantView]:
        return [t for t in self.tenants if t.state == "queued"]


# -- shared planning helpers -------------------------------------------------


def plan_starvation_revocations(
    view: ArbiterView,
    config: ArbiterConfig,
    overage: Callable[[TenantView], float],
) -> List[Decision]:
    """Revoke over-share tenants so a starved queued tenant can admit.

    ``overage`` scores how far past its entitlement a running tenant
    holds (arbiter-specific: share-relative for ``proportional``,
    demand-relative for ``demand``). Victims are chosen lowest priority
    first, then largest overage, then longest-resident — so scarce
    capacity rotates. Revocations are only emitted when the freed CPU
    (plus what is already free) actually covers the starved tenant's
    demand; tearing a tenant down without unblocking anyone is pure
    churn.
    """
    if config.max_revocations <= 0:
        return []
    starved = [
        t for t in view.queued()
        if t.queued_since is not None
        and view.now - t.queued_since >= config.patience
    ]
    if not starved:
        return []
    starved.sort(key=lambda t: (-t.priority, t.queued_since))
    target = starved[0]
    need = target.demand_cpu - view.free_cpu
    if need <= _EPS:
        return []  # feasible on free CPU alone: fragmentation, not scarcity
    victims = [
        t for t in view.running()
        if t.priority <= target.priority
        and t.admitted_at is not None
        and view.now - t.admitted_at >= config.min_residency
        and overage(t) > _EPS
    ]
    victims.sort(key=lambda t: (t.priority, -overage(t), t.admitted_at))
    chosen: List[Decision] = []
    freed = 0.0
    for victim in victims:
        if len(chosen) >= config.max_revocations:
            break
        freed += victim.base_cpu + victim.budget_used
        chosen.append(Decision(
            REVOKE, victim.name,
            reason=(f"starved {target.name!r} (queued "
                    f"{view.now - target.queued_since:.1f}s, needs "
                    f"{target.demand_cpu:.2f} cpu); {victim.name!r} holds "
                    f"{victim.base_cpu + victim.budget_used:.2f} over share"),
        ))
        if freed >= need - _EPS:
            return chosen
    return []


def plan_defrag_migration(
    view: ArbiterView, config: ArbiterConfig,
) -> List[Decision]:
    """One consolidating migration when churn has stranded capacity.

    Trigger: some queued tenant's demand fits the cluster's *aggregate*
    free CPU, yet it is still queued — the free capacity is scattered
    in fragments the placement cannot colocate into. Re-placing the
    most-scattered small tenant through the packing strategy compacts
    the committed mass and coalesces the fragments.
    """
    if not config.defrag:
        return []
    stranded = [t for t in view.queued()
                if t.demand_cpu <= view.free_cpu + _EPS]
    if not stranded:
        return []
    movable = [
        t for t in view.running()
        if len(t.nodes) > 1
        and t.extra_replicas == 0
        and t.admitted_at is not None
        and view.now - t.admitted_at >= config.min_residency
    ]
    if not movable:
        return []
    # Most scattered first (nodes per unit of CPU), smallest CPU breaks
    # ties — cheap moves that free the most fragments.
    movable.sort(key=lambda t: (-len(t.nodes), t.base_cpu, t.name))
    victim = movable[0]
    return [Decision(
        MIGRATE, victim.name,
        reason=(f"defrag: {stranded[0].name!r} needs "
                f"{stranded[0].demand_cpu:.2f} cpu, {view.free_cpu:.2f} "
                f"free but fragmented; {victim.name!r} spans "
                f"{len(victim.nodes)} nodes"),
    )]


def _budget_decisions(view: ArbiterView, targets: Dict[str, float],
                      label: str) -> List[Decision]:
    """GROW/SHRINK decisions moving each tenant's budget to its target."""
    out: List[Decision] = []
    for tenant in view.running():
        target = max(0.0, targets.get(tenant.name, 0.0))
        if abs(target - tenant.budget) <= 1e-6:
            continue
        kind = GROW if target > tenant.budget else SHRINK
        out.append(Decision(
            kind, tenant.name, cpu=target,
            reason=f"{label}: budget {tenant.budget:.2f} -> {target:.2f}",
        ))
    return out


# -- arbiters ----------------------------------------------------------------


class Arbiter:
    """Decision interface: cluster view in, decisions out.

    Arbiters never touch the runtime; the controller executes their
    decisions and owns all side effects. ``reset`` forgets learned
    state (none for the built-ins, hooks for stateful customs).
    """

    name = "null"

    def decide(self, view: ArbiterView) -> List[Decision]:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget learned state (cold restart)."""


class NullArbiter(Arbiter):
    """Never an opinion — the arbitration differential baseline.

    A run configured with this arbiter installs no controller process
    at all, so it is bit-identical to ``arbiter=None``.
    """

    name = "null"

    def decide(self, view: ArbiterView) -> List[Decision]:
        return []


class ProportionalArbiter(Arbiter):
    """Weighted bi-criteria shares à la Benoit et al.

    Every *active* tenant (running or queued) is entitled to
    ``share_i = total_cpu · w_i / Σw``. Running tenants' elastic
    budgets fill up to the share (``budget = max(0, share − base)``);
    tenants holding base+drawn CPU past their share are revocation
    candidates when someone starves in the queue. ``latency_bias``
    is the period/latency trade-off: it inflates the effective weight
    of tenants with standing backlog relative to their throughput, so
    a latency-suffering tenant's share (and budget) grows at the
    expense of purely throughput-greedy ones.
    """

    name = "proportional"

    def __init__(self, config: ArbiterConfig) -> None:
        self.config = config

    def _shares(self, view: ArbiterView) -> Dict[str, float]:
        active = [t for t in view.tenants if t.state in ("running", "queued")]
        if not active:
            return {}
        bias = self.config.latency_bias
        weights = {}
        for t in active:
            w = t.weight
            if bias > 0 and t.state == "running":
                # Backlog normalized by base parallelism: a tenant whose
                # buffers hold one item per thread is mildly behind; ten
                # per thread is drowning.
                behind = t.backlog / max(1, t.n_threads)
                w *= 1.0 + bias * min(4.0, behind)
            weights[t.name] = w
        total_w = sum(weights.values())
        if total_w <= 0:
            return {}
        return {
            name: view.total_cpu * w / total_w
            for name, w in weights.items()
        }

    def decide(self, view: ArbiterView) -> List[Decision]:
        shares = self._shares(view)
        targets = {
            t.name: shares.get(t.name, 0.0) - t.base_cpu
            for t in view.running()
        }
        decisions = _budget_decisions(view, targets, "proportional")
        decisions += plan_starvation_revocations(
            view, self.config,
            overage=lambda t: (t.base_cpu + t.budget_used
                               - shares.get(t.name, 0.0)),
        )
        decisions += plan_defrag_migration(view, self.config)
        return decisions


class DemandArbiter(Arbiter):
    """DRS-style allocation from observed arrival/service rates.

    Each running tenant's demand is estimated from measurements, not
    declarations: with λ (arrival rate) and s (mean service time)
    observed, the Erlang machinery from :mod:`repro.control.scale`
    sizes the server count that keeps utilisation under target
    (:func:`~repro.control.scale.required_replicas`), converted to CPU
    via the tenant's mean per-thread reservation; without measurements
    yet, the observed CPU consumption over the window is inflated to
    the target instead. Budgets follow the estimate; revocation
    victims are the tenants whose *measured* hold exceeds an equal
    split; and a node observably hotter than its core count triggers a
    migration of its smallest resident tenant to the rest of the
    cluster.
    """

    name = "demand"

    #: Observed node load must exceed capacity by this factor before a
    #: re-balance migration fires (measurement noise guard).
    HOT_NODE_FACTOR = 1.25

    def __init__(self, config: ArbiterConfig) -> None:
        self.config = config

    def _estimate(self, t: TenantView) -> float:
        """Estimated CPU the tenant needs to hold target utilisation."""
        from repro.control.scale import required_replicas

        cfg = self.config
        if (t.arrival_rate > 0 and t.service_time is not None
                and t.service_time > 0 and t.n_threads > 0):
            servers = required_replicas(
                t.arrival_rate, t.service_time, cfg.target_utilization,
            )
            per_server = (t.demand_cpu / t.n_threads if t.n_threads else 0.0)
            return servers * per_server
        return t.observed_cpu / cfg.target_utilization

    def decide(self, view: ArbiterView) -> List[Decision]:
        estimates = {t.name: self._estimate(t) for t in view.running()}
        targets = {
            t.name: estimates[t.name] - t.base_cpu
            for t in view.running()
        }
        decisions = _budget_decisions(view, targets, "demand")
        active = [t for t in view.tenants
                  if t.state in ("running", "queued")]
        fair = view.total_cpu / len(active) if active else 0.0
        decisions += plan_starvation_revocations(
            view, self.config,
            overage=lambda t: max(
                t.base_cpu + t.budget_used - fair,
                estimates.get(t.name, 0.0) - fair,
            ),
        )
        decisions += self._rebalance(view)
        decisions += plan_defrag_migration(view, self.config)
        return decisions

    def _rebalance(self, view: ArbiterView) -> List[Decision]:
        """Migrate the smallest tenant off an observably hot node."""
        cfg = self.config
        hot = None
        worst = self.HOT_NODE_FACTOR
        for node, load in view.node_observed.items():
            capacity = view.node_capacity.get(node, 0.0)
            if capacity <= 0:
                continue
            ratio = load / capacity
            if ratio > worst:
                hot, worst = node, ratio
        if hot is None:
            return []
        spare = sum(
            max(0.0, view.node_capacity[n] - view.node_observed.get(n, 0.0))
            for n in view.node_capacity if n != hot
        )
        if spare <= _EPS:
            return []
        residents = [
            t for t in view.running()
            if hot in t.nodes
            and t.extra_replicas == 0
            and t.admitted_at is not None
            and view.now - t.admitted_at >= cfg.min_residency
        ]
        if not residents:
            return []
        residents.sort(key=lambda t: (t.observed_cpu, t.name))
        victim = residents[0]
        return [Decision(
            MIGRATE, victim.name, exclude=(hot,),
            reason=(f"re-balance: node {hot!r} observed at "
                    f"{worst:.2f}x capacity; moving {victim.name!r} "
                    f"({victim.observed_cpu:.2f} cpu observed)"),
        )]


# -- registry ----------------------------------------------------------------

#: ``factory(config)`` -> a fresh arbiter per run (the same
#: one-instance-per-scheduler discipline as placements).
ARBITERS: Registry[Callable[[ArbiterConfig], Arbiter]] = Registry("arbiter")

register_arbiter = ARBITERS.register
available_arbiters = ARBITERS.names


def resolve_arbiter_config(value) -> Optional[ArbiterConfig]:
    """Normalize a TenancySpec ``arbiter`` value to a config (or None).

    Accepts None (arbitration off), a registered name, an
    :class:`ArbiterConfig` whose policy is registered, or a spec file's
    object of :class:`ArbiterConfig` fields (``name`` defaults to the
    policy).
    """
    if value is None:
        return None
    if isinstance(value, Mapping):
        value = build(ArbiterConfig,
                      {"name": value.get("policy", "proportional"), **value},
                      "arbiter")
    elif not isinstance(value, ArbiterConfig):
        value = ArbiterConfig(policy=value, name=value)
    ARBITERS.get(value.policy)  # a typo fails here, not at the first tick
    return value


register_arbiter(
    "proportional", ProportionalArbiter,
    help="weighted bi-criteria shares (Benoit et al.): budgets fill to "
         "weight-proportional entitlements, over-share tenants revoked "
         "when the queue starves",
)
register_arbiter(
    "demand", DemandArbiter,
    help="DRS-style observed-demand allocation (Fu et al.): Erlang-C "
         "estimates size budgets, hot nodes shed their smallest tenant",
)
register_arbiter(
    "null", lambda config: NullArbiter(),
    help="never an opinion; installs no controller (differential "
         "baseline)",
)


# -- controller --------------------------------------------------------------


class ArbiterController:
    """One DES process re-solving the cluster allocation periodically.

    Each tick: snapshot an :class:`ArbiterView` (per-tenant observed
    rates from the drivers' STP meters, per-node observed load, ledger
    budgets), ask the arbiter for decisions, execute them through the
    runtime (budget set + shrink enforcement, revocation, migration),
    then retry the admission queue — a revocation's whole point is that
    someone queued can now admit.
    """

    def __init__(self, runtime, config: ArbiterConfig) -> None:
        self.runtime = runtime
        self.config = config
        self.arbiter = ARBITERS.get(config.policy)(config)
        #: ``(t, kind, tenant, detail)`` rows, every executed decision.
        self.actions: List[Tuple[float, str, str, str]] = []
        self.revocations = 0
        self.migrations = 0
        self.grows = 0
        self.shrinks = 0
        self.ticks = 0
        #: thread -> iteration count at the previous snapshot.
        self._prev_iters: Dict[str, int] = {}
        self._prev_t = runtime.engine.now

    # -- DES surface --------------------------------------------------------
    def run(self) -> Generator:
        """The controller's DES process body."""
        engine = self.runtime.engine
        while True:
            yield engine.timeout(self.config.interval)
            self.step()

    # -- sensing ------------------------------------------------------------
    def _thread_rates(self, dt: float):
        """Per-thread (rate, stp) over the window; updates prev counters."""
        rates: Dict[str, Tuple[float, Optional[float]]] = {}
        for name, driver in self.runtime.drivers.items():
            iters = driver.iterations
            prev = self._prev_iters.get(name, 0)
            self._prev_iters[name] = iters
            rate = (iters - prev) / dt if dt > 0 else 0.0
            rates[name] = (rate, driver.meter.current_stp)
        return rates

    def snapshot(self) -> ArbiterView:
        """Build the cluster view for one arbitration decision."""
        runtime = self.runtime
        scheduler = runtime.scheduler
        ledger = scheduler.ledger
        now = runtime.engine.now
        dt = now - self._prev_t
        self._prev_t = now
        rates = self._thread_rates(dt)

        node_capacity = {
            name: scheduler.capacity(name)[0]
            for name in ledger.committed if name not in scheduler.failed
        }
        node_committed = {
            name: ledger.committed[name][0] for name in node_capacity
        }
        node_observed = {name: 0.0 for name in node_capacity}

        views = []
        for tenant in runtime.tenants.values():
            base_cpu = 0.0
            observed = 0.0
            stps: List[float] = []
            arrival = 0.0
            backlog = 0
            nodes = set()
            extra = 0
            if tenant.state == "running":
                for local, node in tenant.placement_local.items():
                    base_cpu += tenant.demands[local].cpu
                    nodes.add(node)
                threads = list(tenant.threads)
                for stage in tenant.stages:
                    for name in runtime.graph.replicas_of(stage):
                        if name not in tenant.threads:
                            threads.append(name)
                            extra += 1
                for name in threads:
                    pair = rates.get(name)
                    if pair is None:
                        continue
                    rate, stp = pair
                    if stp is not None and stp > 0:
                        observed += rate * stp
                        stps.append(stp)
                    if (tenant.graph is not None
                            and runtime.graph.is_source(name)):
                        arrival += rate
                for name in tenant.buffers:
                    buf = runtime.buffers.get(name)
                    if buf is not None:
                        backlog += len(buf)
                for name, node in tenant.placement.items():
                    pair = rates.get(name)
                    if pair is not None and node in node_observed:
                        rate, stp = pair
                        if stp is not None and stp > 0:
                            node_observed[node] += rate * stp
            demand_cpu = sum(d.cpu for d in tenant.demands.values()) \
                if tenant.demands else tenant.spec.demand.cpu
            views.append(TenantView(
                name=tenant.name,
                state=tenant.state,
                priority=tenant.priority,
                weight=tenant.weight,
                base_cpu=base_cpu,
                demand_cpu=demand_cpu,
                n_threads=len(tenant.threads) or 1,
                budget=ledger.budget(tenant.name),
                budget_used=ledger.used_budget(tenant.name),
                nodes=tuple(sorted(nodes)),
                admitted_at=tenant.admitted_at,
                queued_since=tenant.queued_at,
                observed_cpu=observed,
                arrival_rate=arrival,
                service_time=sum(stps) / len(stps) if stps else None,
                backlog=backlog,
                extra_replicas=extra,
            ))

        total_cpu = sum(node_capacity.values())
        free_cpu = sum(
            max(0.0, node_capacity[n] - node_committed[n])
            for n in node_capacity
        )
        return ArbiterView(
            now=now,
            total_cpu=total_cpu,
            free_cpu=free_cpu,
            node_capacity=node_capacity,
            node_committed=node_committed,
            node_observed=node_observed,
            tenants=tuple(views),
        )

    # -- actuation ----------------------------------------------------------
    def step(self) -> int:
        """One arbitration tick; returns the number of decisions applied."""
        runtime = self.runtime
        self.ticks += 1
        view = self.snapshot()
        decisions = self.arbiter.decide(view) or []
        applied = 0
        freed = False
        for decision in decisions:
            tenant = runtime.tenants.get(decision.tenant)
            if tenant is None:
                continue
            if decision.kind in (GROW, SHRINK):
                if tenant.state != "running":
                    continue
                old = runtime.set_tenant_budget(tenant, decision.cpu)
                if abs(old - decision.cpu) <= 1e-9:
                    continue
                if decision.kind == GROW:
                    self.grows += 1
                else:
                    self.shrinks += 1
            elif decision.kind == REVOKE:
                if tenant.state != "running":
                    continue
                runtime.revoke_tenant(tenant, reason=decision.reason)
                self.revocations += 1
                freed = True
            elif decision.kind == MIGRATE:
                if tenant.state != "running":
                    continue
                if not runtime.migrate_tenant(
                    tenant, exclude=decision.exclude,
                    reason=decision.reason,
                ):
                    continue
                self.migrations += 1
                freed = True
            applied += 1
            self.actions.append(
                (view.now, decision.kind, decision.tenant, decision.reason)
            )
            if runtime.obs.enabled:
                runtime.obs.on_arbiter(decision.kind, decision.tenant,
                                       view.now, detail=decision.reason)
        if freed:
            runtime.retry_queued()
        return applied

    def summary(self) -> Dict[str, object]:
        """End-of-run arbitration digest for :class:`TenancyResult`."""
        ledger = self.runtime.scheduler.ledger
        return {
            "arbiter": self.arbiter.name,
            "ticks": self.ticks,
            "revocations": self.revocations,
            "migrations": self.migrations,
            "grows": self.grows,
            "shrinks": self.shrinks,
            "grant_denials": sum(ledger.denials.values()),
            "grants": sum(ledger.grants.values()),
            "tenants": ledger.audit(),
            "actions": list(self.actions),
        }


def install_arbiter(runtime, config: ArbiterConfig
                    ) -> Optional[ArbiterController]:
    """Spawn the arbitration process on a runtime (None for null/off).

    The same zero-cost idiom as the scale plane: ``None`` configs and
    the ``null`` policy install nothing, so such runs stay bit-identical
    to PR 8 behaviour.
    """
    if config is None or config.policy == "null":
        return None
    controller = ArbiterController(runtime, config)
    runtime.arbiter = controller
    runtime.engine.process(controller.run(), name="tenancy.arbiter")
    return controller
