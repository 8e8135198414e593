"""The shared multi-tenant runtime: one engine, many tenants.

:class:`TenantRuntime` extends :class:`~repro.runtime.Runtime` with the
tenancy lifecycle: tenants admit into (and depart from) one *shared*
task graph mid-run, every tenant's threads contending for the same
simulated nodes and links. A built :class:`~repro.tenancy.tenant.Tenant`
is the :class:`~repro.runtime.runtime.Scope` its part of the graph is
wired for — handed to ``_wire`` at admission, kept by every driver
(``driver.scope``) and replicated stage, and read back from there by
restart, re-placement and scale-out; a node's name is never parsed. Each
tenant thereby gets:

* a **private control plane** — its own
  :class:`~repro.control.propagation.FeedbackBus` built from its own
  ARU config, so backwardSTP never crosses tenant boundaries;
* **private RNG streams** — a per-tenant
  :class:`~repro.sim.rng.RngRegistry` keyed by *local* thread names, so
  equal-seeded tenants of one app draw identical workloads regardless
  of admission order;
* **namespaced wiring** — graph nodes merge in under the tenant's
  ``prefix`` (``<tenant>/`` unless the spec names another ``namespace``
  ending in ``/``, or the empty one), while connection keys stay the
  local names the task bodies hard-code.

Zero-cost-abstraction contract: a run with one static tenant under the
empty namespace adds *no* engine processes and *no* RNG draws over the
equivalent single-tenant :class:`~repro.runtime.Runtime`, so its
metrics fingerprint is bit-identical (asserted by
``tests/tenancy/test_zero_cost.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.runtime.graph import TaskGraph
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.tenancy.scheduler import Scheduler
from repro.tenancy.tenant import (
    DEPARTED,
    EVICTED,
    QUEUED,
    REJECTED,
    RUNNING,
    Tenant,
)


class TenantRuntime(Runtime):
    """A :class:`Runtime` whose graph is populated by tenant admission."""

    def __init__(self, config: Optional[RuntimeConfig] = None,
                 scheduler: Optional[Scheduler] = None) -> None:
        if scheduler is None:
            scheduler = Scheduler((config or RuntimeConfig()).cluster)
        self.scheduler = scheduler
        #: Every tenant ever admitted (RUNNING/DEPARTED/EVICTED), by name.
        self.tenants: Dict[str, Tenant] = {}
        #: The at-most-one tenant running under the empty namespace.
        self._blank_tenant: Optional[str] = None
        #: Tenants waiting for capacity (``admission="queue"``).
        self.queued: List[Tenant] = []
        #: ``(t, tenant, decision, detail)`` admission history.
        self.admission_log: List[tuple] = []
        #: The installed :class:`~repro.tenancy.arbiter.ArbiterController`
        #: (None = arbitration off: scale-outs are not budget-gated and
        #: the run is event-for-event identical to the pack-only plane).
        self.arbiter = None
        #: replica thread -> (tenant, stage, cpu, node) for every live
        #: replica admitted through a ledger headroom grant.
        self._replica_grants: Dict[str, Tuple[str, str, float, str]] = {}
        self._pending_grant: Optional[Tuple[str, str, float, str]] = None
        super().__init__(TaskGraph(name="tenancy"), config)
        scheduler.bind(self.nodes)

    def _validate_graph(self) -> None:
        # The shared graph starts empty (tenants may all arrive late);
        # each tenant's private graph is validated at admission instead.
        pass

    # -- scale-plane budget gate ---------------------------------------------
    def _admit_replica(self, stage: str, node_name: str) -> bool:
        """Node admission, plus a ledger budget draw when arbitrated.

        Without an arbiter the base R-Storm node check stands alone —
        bit-identical to the pack-only plane. With one, a scale-out must
        *also* draw the replica's CPU from the owning tenant's granted
        elastic budget (:meth:`Scheduler.request_headroom`); a tenant
        whose budget is exhausted gets its request denied — and counted
        — no matter how idle the node is. That is the whole point: free
        capacity belongs to whoever the arbiter granted it to.
        """
        if not super()._admit_replica(stage, node_name):
            return False
        if self.arbiter is None:
            return True
        tenant = self._stage_scope[stage]
        cpu = tenant.demand_for(tenant.local_name(stage)).cpu
        granted = self.scheduler.request_headroom(tenant.name, cpu, node_name)
        if self.obs.enabled:
            self.obs.on_arbiter("grant" if granted else "deny", tenant.name,
                                self.engine.now, detail=f"{stage} on {node_name}")
        if granted:
            self._pending_grant = (tenant.name, stage, cpu, node_name)
        return granted

    def _on_replica_spawned(self, stage: str, name: str,
                            node_name: str) -> None:
        grant = self._pending_grant
        self._pending_grant = None
        if grant is not None and grant[1] == stage:
            self._replica_grants[name] = grant

    def _on_replica_retired(self, stage: str, name: str) -> None:
        grant = self._replica_grants.pop(name, None)
        if grant is not None:
            tenant, _, cpu, node = grant
            self.scheduler.release_headroom(tenant, cpu, node)

    def set_tenant_budget(self, tenant: Tenant, cpu: float) -> float:
        """Set a tenant's elastic budget and enforce any shrink.

        Returns the previous budget. Enforcement is immediate: replicas
        drawing past the new allowance are retired (newest grant first)
        until the draw fits — the ledger records allowances, but only
        the runtime can drain and kill threads.
        """
        old = self.scheduler.set_budget(tenant.name, cpu)
        ledger = self.scheduler.ledger
        while ledger.used_budget(tenant.name) > cpu + 1e-9:
            victim = None
            for name, grant in reversed(list(self._replica_grants.items())):
                if grant[0] == tenant.name:
                    victim = (name, grant[1])
                    break
            if victim is None:
                break  # draws without live replicas: nothing to retire
            self.retire_replica(victim[1], victim[0], reason="budget shrink")
        return old

    # -- admission -----------------------------------------------------------
    def admit_tenant(self, tenant: Tenant) -> bool:
        """Place, reserve, and wire one tenant into the shared run.

        Returns False (with no side effects) when the scheduler finds
        no feasible placement; the caller decides queue-vs-reject.
        """
        now = self.engine.now
        if tenant.name in self.tenants and tenant.state == RUNNING:
            raise ConfigError(f"tenant {tenant.name!r} is already running")
        tenant.build(self.config.seed, self.clock.now)
        if tenant.prefix == "" and self._blank_tenant not in (None, tenant.name):
            raise ConfigError(
                f"tenant {tenant.name!r}: only one blank-namespace tenant "
                f"per run (already: {self._blank_tenant!r})"
            )
        graph = tenant.own_graph()
        placement_local = self.scheduler.admit(
            tenant.name, list(tenant.demands), tenant.demands,
            tenant.neighbors(graph)
        )
        if placement_local is None:
            return False

        first = tenant.graph is not None
        if first:
            mapping = self.graph.merge(graph, prefix=tenant.prefix)
            tenant.mapping = mapping
            tenant.threads = tuple(mapping[t] for t in graph.threads())
            tenant.buffers = tuple(mapping[b] for b in graph.buffers())
            tenant.stages = tuple(
                f"{tenant.prefix}{s}" for s in graph.replicated_stages()
            )
            tenant.sinks = tuple(mapping[t] for t in graph.sinks())
            tenant.graph = None  # the shared graph holds the tenant now
        else:
            self._restore_replicas(tenant, graph)
        self.tenants[tenant.name] = tenant
        if tenant.prefix == "":
            self._blank_tenant = tenant.name
        self._place(tenant, placement_local)
        # A readmitted tenant restarts cold on the buffers (drained at
        # its revocation) and merges it was first wired with.
        self._wire(tenant.buffers if first else (), tenant.threads,
                   tenant.stages if first else (), tenant)
        self._install_scale_controllers(tenant.stages, tenant.scale)
        tenant.state = RUNNING
        tenant.admitted_at = now
        tenant.departed_at = None
        tenant.queued_at = None
        self.admission_log.append((now, tenant.name, "admitted", ""))
        if self.obs.enabled:
            self.obs.on_tenant("admitted", tenant.name, now)
        return True

    def _restore_replicas(self, tenant: Tenant, graph: TaskGraph) -> List[str]:
        """Put back the declared replicas scale-in retired: a readmitted
        or re-placed tenant restarts in the shape ``graph``, its fresh
        build, declares. Returns the names put back."""
        restored = []
        for stage in graph.replicated_stages():
            members = graph.stage_spec(stage)["members"]
            for index, local in members.items():
                if tenant.mapping[local] not in self.graph:
                    restored.append(
                        self.graph.add_replica(tenant.prefix + stage, index))
        return restored

    def arrive(self, tenant: Tenant) -> str:
        """Admission front door: admit, else queue or reject."""
        if self.admit_tenant(tenant):
            return "admitted"
        now = self.engine.now
        self.tenants.setdefault(tenant.name, tenant)
        if self.scheduler.admission == "queue":
            tenant.state = QUEUED
            tenant.queued_at = now
            self.queued.append(tenant)
            decision = "queued"
        else:
            tenant.state = REJECTED
            decision = "rejected"
        self.admission_log.append((now, tenant.name, decision, ""))
        if self.obs.enabled:
            self.obs.on_tenant(decision, tenant.name, now)
        return decision

    def retry_queued(self) -> int:
        """Try admitting queued tenants (priority, then FIFO) after a
        departure freed capacity. Stops at the first still-infeasible
        tenant so a large high-priority tenant is never starved by
        smaller later arrivals. Returns the number admitted."""
        if not self.queued:
            return 0
        order = sorted(
            range(len(self.queued)),
            key=lambda i: (-self.queued[i].priority, i),
        )
        admitted = []
        for i in order:
            if self.admit_tenant(self.queued[i]):
                admitted.append(i)
            else:
                break
        for i in sorted(admitted, reverse=True):
            del self.queued[i]
        return len(admitted)

    # -- departure -----------------------------------------------------------
    def depart_tenant(self, tenant: Tenant, reason: str = "departure",
                      state: str = DEPARTED, release: bool = True,
                      phase: Optional[str] = None) -> None:
        """Tear one tenant down: kill threads, reclaim storage, release
        reservations. The tenant's graph nodes stay in the shared graph
        (dead), preserving trace attribution. ``phase`` overrides the
        logged transition (revocation departs to QUEUED as "revoked")."""
        if tenant.state != RUNNING:
            raise ConfigError(
                f"tenant {tenant.name!r} is {tenant.state}, not running"
            )
        now = self.engine.now
        for stage in tenant.stages:
            process = self._scaler_processes.pop(stage, None)
            if process is not None and process.is_alive:
                process.kill(reason)
            self.scalers.pop(stage, None)
        # Elastic replicas spawned after admission are not in
        # tenant.threads; retire them first so their connections,
        # processes, and any ledger headroom draws go with the tenant.
        for stage in tenant.stages:
            for name in list(self.graph.replicas_of(stage)):
                if name not in tenant.threads:
                    self.retire_replica(stage, name, reason=reason)
        for name in tenant.threads:
            process = self._processes.get(name)
            if process is not None and process.is_alive:
                process.kill(reason)
        for name in tenant.threads:
            if name not in self.drivers:
                continue
            self._disconnect(name, collect=False)  # drained below
            del self.drivers[name]
            self._processes.pop(name, None)
            self._thread_placement.pop(name, None)
            self.config.placement.pop(name, None)
        for stage in tenant.stages:
            self.config.placement.pop(stage, None)
        for name in tenant.buffers:
            buffer = self.buffers.get(name)
            if buffer is not None:
                buffer.drain(now)
        if release:
            self.scheduler.release(tenant.placement_local, tenant.demands,
                                   tenant=tenant.name)
        self.scheduler.ledger.clear_tenant(tenant.name)
        if tenant.admitted_at is not None:
            tenant.prior_residence += max(0.0, now - tenant.admitted_at)
        tenant.state = state
        tenant.departed_at = now
        if phase is None:
            phase = "evicted" if state == EVICTED else "departed"
        self.admission_log.append((now, tenant.name, phase, reason))
        if self.obs.enabled:
            self.obs.on_tenant(phase, tenant.name, now, detail=reason)

    # -- arbitration surface --------------------------------------------------
    def revoke_tenant(self, tenant: Tenant, reason: str = "revoked") -> None:
        """Take a running tenant's reservation away and re-queue it.

        The full departure teardown runs — extra replicas retired,
        threads killed, buffers drained, reservations and budget
        released — but the tenant lands back in the admission queue
        instead of leaving: weighted time-sharing of a scarce cluster.
        Readmission later restarts it cold through the normal path.
        """
        self.depart_tenant(tenant, reason=reason, state=QUEUED,
                           phase="revoked")
        now = self.engine.now
        tenant.revocations += 1
        tenant.queued_at = now
        tenant.admitted_at = None
        self.queued.append(tenant)

    def migrate_tenant(self, tenant: Tenant, exclude=(),
                       reason: str = "migrate") -> bool:
        """Re-place a running tenant's threads through the scheduler.

        Releases the tenant's reservations, asks the placement strategy
        for a fresh packing over the surviving nodes minus ``exclude``,
        and — when the answer differs — moves the tenant there: buffers
        drained, every thread restarted cold (the crash-replace
        machinery's discipline: a migrated tenant restarts as a unit).
        Infeasible or unchanged placements re-commit the old one and
        return False; the cluster is left exactly as found.
        """
        if tenant.state != RUNNING:
            raise ConfigError(
                f"tenant {tenant.name!r} is {tenant.state}, not running"
            )
        if any(g[0] == tenant.name for g in self._replica_grants.values()):
            return False  # elastic replicas pin the current packing
        self.scheduler.release(tenant.placement_local, tenant.demands,
                               tenant=tenant.name)
        new_local = self.scheduler.admit(
            tenant.name, list(tenant.demands), tenant.demands,
            tenant.neighbors(), exclude=exclude,
        )
        if new_local is None or new_local == tenant.placement_local:
            if new_local is not None:
                self.scheduler.release(new_local, tenant.demands,
                                       tenant=tenant.name)
            self.scheduler.commit(tenant.placement_local, tenant.demands,
                                  tenant=tenant.name)
            return False
        detail = self._move_tenant(tenant, new_local)
        tenant.migrations += 1
        tenant.detail = f"migrated: {detail}"
        now = self.engine.now
        self.admission_log.append((now, tenant.name, "migrated", detail))
        if self.obs.enabled:
            self.obs.on_tenant("migrated", tenant.name, now, detail=detail)
        return True

    def _place(self, tenant: Tenant, placement_local: Dict[str, str]) -> None:
        """Record where the scheduler put (some of) ``tenant``'s threads
        in the four placement tables; a stage's next replicas follow
        its first one."""
        for local, node in placement_local.items():
            shared = tenant.mapping[local]
            tenant.placement_local[local] = node
            tenant.placement[shared] = node
            self._thread_placement[shared] = node
            self.config.placement[shared] = node
        for stage in tenant.stages:
            first = self.graph.replicas_of(stage)
            if first:
                self.config.placement[stage] = tenant.placement.get(
                    first[0], self.config.placement.get(stage)
                )

    def _move_tenant(self, tenant: Tenant, new_local: Dict[str, str]) -> str:
        """Apply a re-placement of (some of) a running tenant's threads;
        returns the ``local->node`` detail string for the logs."""
        now = self.engine.now
        self._place(tenant, new_local)
        # The tenant restarts cold *as a unit*, like a supervisor
        # restarting a job: fresh generators reset timestamp counters,
        # so earlier items must not survive (a restarted producer
        # would collide with its own old timestamps) and threads that
        # were not moved must not keep cursors pointing past
        # everything the new incarnation will produce (a get-LATEST
        # consumer would wedge until the counter caught up).
        for name in tenant.buffers:
            self.buffers[name].drain(now)
        restored = (self._restore_replicas(tenant, tenant.own_graph())
                    if tenant.stages else ())
        for name in tenant.threads:
            if name in restored:  # retired, its reservation still held
                self._thread_placement[name] = tenant.placement[name]
                self._spawn(name, tenant)
            else:
                self.restart_thread(name)
        return ",".join(f"{l}->{n}" for l, n in sorted(new_local.items()))

    # -- fault surface --------------------------------------------------------
    def crash_node(self, name: str, reason: str = "node crash") -> None:
        """Crash a node, then evict-and-re-place only its tenants.

        Each tenant with threads resident on the crashed node gets those
        threads re-placed by the scheduler over the surviving nodes
        (reservations move with them); when no feasible re-placement
        exists the whole tenant is evicted. Tenants elsewhere in the
        cluster are untouched — blast-radius containment is the point.
        """
        super().crash_node(name, reason)
        self.scheduler.mark_failed(name)
        # What moves is what is reserved here: every declared thread,
        # running or retired by scale-in. An elastic replica holds no
        # reservation: it died with the node and is its stage's to reap.
        by_tenant: Dict[Tenant, List[str]] = {}
        for tenant in self.tenants.values():
            if tenant.state == RUNNING:
                threads = [t for t, n in tenant.placement.items() if n == name]
                if threads:
                    by_tenant[tenant] = threads
        for tenant, threads in by_tenant.items():
            self._replace_tenant_threads(tenant, threads, crashed=name)

    def _replace_tenant_threads(self, tenant: Tenant, threads: List[str],
                                crashed: str) -> None:
        now = self.engine.now
        locals_ = [tenant.local_name(t) for t in threads]
        moved = {l: tenant.placement_local[l] for l in locals_}
        demands = {l: tenant.demands[l] for l in locals_}
        self.scheduler.release(moved, demands, tenant=tenant.name)
        new_local = self.scheduler.admit(
            tenant.name, locals_, demands, tenant.neighbors()
        )
        if new_local is None:
            # No feasible re-placement: evict. The moved threads'
            # reservations are already released; release the rest here.
            unaffected = {
                l: n for l, n in tenant.placement_local.items()
                if l not in moved
            }
            self.scheduler.release(
                unaffected, {l: tenant.demands[l] for l in unaffected},
                tenant=tenant.name,
            )
            self.depart_tenant(
                tenant, reason=f"evicted: {crashed} crashed",
                state=EVICTED, release=False,
            )
            tenant.detail = f"no feasible re-placement after {crashed}"
            return
        detail = self._move_tenant(tenant, new_local)
        tenant.detail = f"re-placed off {crashed}: {detail}"
        self.admission_log.append((now, tenant.name, "replaced", detail))
        if self.fault_hook is not None:
            self.fault_hook("tenant_replaced", tenant.name, crashed)
        if self.obs.enabled:
            self.obs.on_tenant("replaced", tenant.name, now, detail=detail)

    def restart_node(self, name: str) -> None:
        """Recover a node: re-admit capacity, then retry the queue."""
        self.scheduler.mark_recovered(name)
        super().restart_node(name)
        self.retry_queued()
