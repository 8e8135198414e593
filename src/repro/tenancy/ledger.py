"""The reservation ledger: pure resource accounting for one cluster.

One monolithic ``Scheduler`` used to do both; it is split into two
layers. This module is the *mechanism* half — a :class:`ReservationLedger` that knows
how much of each node's CPU/memory/bandwidth is committed, which tenant
committed it, and what **elastic budget** each tenant has been granted
on top of its base reservations. It holds no policy: placement
strategies decide *where* reservations land, arbiters decide *how much*
each tenant may hold, and both act through the ledger's commit/release/
budget verbs. The :class:`~repro.tenancy.scheduler.Scheduler` remains
the decision layer composing the two.

Budgets are CPU-denominated: the scale plane's unit of actuation is one
worker replica, and a replica's memory/bandwidth footprint rides on the
channel accounting that already exists. A tenant's *share* of the
cluster is therefore ``base CPU (placed reservations) + budget (granted
headroom)``; :meth:`request_headroom` is the single gate the elastic
scale plane draws replicas through, and every grant or denial is
recorded per tenant so arbitration is auditable after the run.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.cluster.spec import ClusterSpec
from repro.errors import ConfigError, SimulationError
from repro.tenancy.tenant import ResourceDemand

_EPS = 1e-9

#: Axis names of the reservation vector, in ledger order.
AXES = ("cpu", "mem", "bandwidth")


class ReservationLedger:
    """Per-node committed-resource accounting plus per-tenant budgets.

    Engine-free and placement-free: every method is a pure function of
    the ledger state, so the property tests drive it without a DES run.
    A live :class:`~repro.tenancy.runtime.TenantRuntime` binds it to
    real :class:`~repro.cluster.node.Node` objects via :meth:`bind`,
    mirroring reservations into their ``commit``/``uncommit`` counters
    for observability.
    """

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster
        #: node -> full capacity vector (cpu, mem_bytes, bandwidth_bps).
        self.capacities: Dict[str, Tuple[float, float, float]] = {
            n.name: n.capacity_vector for n in cluster.nodes
        }
        #: node -> [cpu, mem_bytes, bandwidth_bps] currently reserved.
        self.committed: Dict[str, List[float]] = {
            n.name: [0.0, 0.0, 0.0] for n in cluster.nodes
        }
        #: node -> ``capacity - committed``, re-derived on every axis written.
        self.free: Dict[str, List[float]] = {
            n: [float(axis) for axis in cap] for n, cap in self.capacities.items()
        }
        #: tenant -> [cpu, mem_bytes, bandwidth_bps] across all nodes
        #: (base reservations plus granted headroom draws).
        self.tenant_committed: Dict[str, List[float]] = {}
        #: tenant -> granted elastic CPU budget (arbiter-set allowance).
        self.budgets: Dict[str, float] = {}
        #: tenant -> CPU currently drawn from the budget by live replicas.
        self.budget_used: Dict[str, float] = {}
        #: tenant -> headroom requests granted / denied (audit trail).
        self.grants: Dict[str, int] = {}
        self.denials: Dict[str, int] = {}
        #: Live Node objects to mirror reservations into (optional).
        self._nodes = None

    # -- binding -----------------------------------------------------------
    def bind(self, nodes) -> "ReservationLedger":
        """Mirror present and future reservations into live nodes."""
        self._nodes = nodes
        for name, committed in self.committed.items():
            node = nodes.get(name)
            if node is not None and any(committed):
                node.commit(committed[0], committed[1], committed[2])
        return self

    # -- capacity queries --------------------------------------------------
    def capacity(self, name: str) -> Tuple[float, float, float]:
        try:
            return self.capacities[name]
        except KeyError:
            raise ConfigError(f"no node named {name!r}") from None

    def available(self, name: str) -> Tuple[float, float, float]:
        """Uncommitted capacity of one node (ignores failure state)."""
        self.capacity(name)  # validates the node exists
        return tuple(self.free[name])

    def utilization(self) -> Dict[str, Dict[str, float]]:
        """Per-node committed fraction on every axis (diagnostics).

        ``{node: {"cpu": f, "mem": f, "bandwidth": f}}`` — not CPU only;
        a memory- or bandwidth-bound fleet saturates those axes first
        and the fairness report should say so.
        """
        out: Dict[str, Dict[str, float]] = {}
        for name, committed in self.committed.items():
            cap = self.capacities[name]
            out[name] = {
                axis: (committed[i] / cap[i] if cap[i] else 0.0)
                for i, axis in enumerate(AXES)
            }
        return out

    # -- commit / release --------------------------------------------------
    def _tenant_vector(self, tenant: str) -> List[float]:
        vec = self.tenant_committed.get(tenant)
        if vec is None:
            vec = self.tenant_committed[tenant] = [0.0, 0.0, 0.0]
        return vec

    def commit(self, placement: Mapping[str, str],
               demands: Mapping[str, ResourceDemand],
               tenant: str = None) -> None:
        """Reserve each placed thread's demand on its node."""
        for thread, node in placement.items():
            vector = demands[thread].as_vector()
            committed = self.committed[node]
            cap = self.capacities[node]
            free = self.free[node]
            for i in range(3):
                if committed[i] + vector[i] > cap[i] + _EPS:
                    raise SimulationError(
                        f"over-commit on node {node!r} placing "
                        f"{thread!r}: axis {i} "
                        f"{committed[i] + vector[i]:.3f} > {cap[i]:.3f}"
                    )
                committed[i] += vector[i]
                free[i] = cap[i] - committed[i]
            if tenant is not None:
                owned = self._tenant_vector(tenant)
                for i in range(3):
                    owned[i] += vector[i]
            if self._nodes is not None:
                self._nodes[node].commit(vector[0], vector[1], vector[2])

    def release(self, placement: Mapping[str, str],
                demands: Mapping[str, ResourceDemand],
                tenant: str = None) -> None:
        """Return reservations made by :meth:`commit`."""
        for thread, node in placement.items():
            vector = demands[thread].as_vector()
            committed = self.committed[node]
            cap = self.capacities[node]
            free = self.free[node]
            for i in range(3):
                if committed[i] - vector[i] < -_EPS:
                    raise SimulationError(
                        f"releasing more than committed on {node!r} "
                        f"for {thread!r}"
                    )
                committed[i] = max(0.0, committed[i] - vector[i])
                free[i] = cap[i] - committed[i]
            if tenant is not None and tenant in self.tenant_committed:
                owned = self.tenant_committed[tenant]
                for i in range(3):
                    owned[i] = max(0.0, owned[i] - vector[i])
            if self._nodes is not None:
                self._nodes[node].uncommit(vector[0], vector[1], vector[2])

    def _set_committed_cpu(self, node: str, cpu: float) -> None:
        self.committed[node][0] = cpu
        self.free[node][0] = self.capacities[node][0] - cpu

    # -- elastic budgets (the arbiter's grant surface) ---------------------
    def budget(self, tenant: str) -> float:
        """The tenant's granted elastic CPU allowance (0 if ungranted)."""
        return self.budgets.get(tenant, 0.0)

    def used_budget(self, tenant: str) -> float:
        """CPU the tenant's live replicas currently draw from the budget."""
        return self.budget_used.get(tenant, 0.0)

    def set_budget(self, tenant: str, cpu: float) -> float:
        """Grant (or shrink) a tenant's elastic budget; returns the old one.

        The ledger only records the allowance — enforcing a shrink
        (retiring replicas already drawing past the new budget) is the
        runtime's job, because it needs to drain and kill threads.
        """
        if cpu < 0:
            raise ConfigError(
                f"budget must be non-negative, got {cpu} for {tenant!r}"
            )
        old = self.budgets.get(tenant, 0.0)
        self.budgets[tenant] = cpu
        return old

    def request_headroom(self, tenant: str, cpu: float, node: str) -> bool:
        """One scale-plane draw: ``cpu`` cores on ``node`` from the budget.

        Grants only when the tenant's budget covers the draw AND the
        node has uncommitted CPU; a grant commits the CPU on the node
        (mirrored into the live ledger) so arbiters and placements see
        elastic replicas as real load. Every outcome is counted.
        """
        if cpu < 0:
            raise ConfigError(f"headroom request must be >= 0, got {cpu}")
        used = self.budget_used.get(tenant, 0.0)
        fits_budget = used + cpu <= self.budgets.get(tenant, 0.0) + _EPS
        fits_node = self.free[node][0] + _EPS >= cpu
        if not (fits_budget and fits_node):
            self.denials[tenant] = self.denials.get(tenant, 0) + 1
            return False
        self._set_committed_cpu(node, self.committed[node][0] + cpu)
        self._tenant_vector(tenant)[0] += cpu
        self.budget_used[tenant] = used + cpu
        self.grants[tenant] = self.grants.get(tenant, 0) + 1
        if self._nodes is not None:
            self._nodes[node].commit(cpu, 0, 0)
        return True

    def release_headroom(self, tenant: str, cpu: float, node: str) -> None:
        """Return a draw made by :meth:`request_headroom`."""
        used = self.budget_used.get(tenant, 0.0)
        if used - cpu < -_EPS:
            raise SimulationError(
                f"tenant {tenant!r}: releasing {cpu} headroom CPU with "
                f"only {used} drawn"
            )
        self.budget_used[tenant] = max(0.0, used - cpu)
        self._set_committed_cpu(node, max(0.0, self.committed[node][0] - cpu))
        if tenant in self.tenant_committed:
            vec = self.tenant_committed[tenant]
            vec[0] = max(0.0, vec[0] - cpu)
        if self._nodes is not None:
            self._nodes[node].uncommit(cpu, 0, 0)

    def clear_tenant(self, tenant: str) -> None:
        """Drop a departed tenant's budget (grant/deny audit trail stays)."""
        self.budgets.pop(tenant, None)
        self.budget_used.pop(tenant, None)

    def audit(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant grant/denial/budget snapshot for reports."""
        tenants = set(self.grants) | set(self.denials) | set(self.budgets)
        return {
            t: {
                "budget": self.budgets.get(t, 0.0),
                "used": self.budget_used.get(t, 0.0),
                "grants": self.grants.get(t, 0),
                "denials": self.denials.get(t, 0),
            }
            for t in sorted(tenants)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        used = sum(c[0] for c in self.committed.values())
        total = sum(cap[0] for cap in self.capacities.values())
        return f"<ReservationLedger cpu {used:.1f}/{total:.1f}>"
