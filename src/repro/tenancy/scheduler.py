"""The cluster scheduler: the tenancy resource plane's decision layer.

ISSUE 9 split the old monolithic scheduler in two. The *mechanism* —
per-node reservation accounting and per-tenant elastic budgets — lives
in :class:`~repro.tenancy.ledger.ReservationLedger`; this class is the
*decision* layer that composes a pluggable placement strategy (where do
a tenant's threads land?) with the ledger (what may they hold?). An
:class:`~repro.tenancy.arbiter.Arbiter`, when configured, revises those
decisions continuously: it reads the ledger, grants/shrinks budgets,
and asks the runtime to revoke or migrate reservations the placement
made earlier. The ledger's verbs are re-exposed here so existing
callers (and the property tests) keep one front door.

Timescale separation (see docs/multi-tenancy.md): the scheduler decides
*where* threads run, at tenant arrival/departure/fault granularity; the
arbiter re-decides *how much* each tenant holds, every arbitration
period; ARU decides *how fast* threads run, every iteration; the
scale controller decides *how many* replicas run, every control period.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.cluster.spec import ClusterSpec
from repro.errors import unknown_name_error
from repro.tenancy.ledger import ReservationLedger
from repro.tenancy.placement import PlacementView, resolve_placement
from repro.tenancy.tenant import ResourceDemand

#: Valid over-capacity behaviours.
ADMISSION_MODES = ("queue", "reject")


def resolve_admission(value: str) -> str:
    """Validate an admission-mode name with the did-you-mean treatment."""
    if value not in ADMISSION_MODES:
        raise unknown_name_error("admission mode", value, ADMISSION_MODES)
    return value


class Scheduler:
    """Resource-aware admission and placement over one cluster."""

    def __init__(self, cluster: ClusterSpec, placement="rstorm",
                 admission: str = "queue") -> None:
        self.cluster = cluster
        self.strategy = resolve_placement(placement)
        self.admission = resolve_admission(admission)
        self.ledger = ReservationLedger(cluster)
        #: Nodes excluded from placement (crashed).
        self.failed: Set[str] = set()

    def bind(self, nodes) -> "Scheduler":
        """Mirror present and future reservations into live nodes."""
        self.ledger.bind(nodes)
        return self

    # -- ledger passthrough ------------------------------------------------
    # The reservation state moved into the ledger; these delegates keep
    # the scheduler the single front door for admission-time callers.
    @property
    def committed(self) -> Dict[str, List[float]]:
        """node -> [cpu, mem_bytes, bandwidth_bps] currently reserved."""
        return self.ledger.committed

    def capacity(self, name: str) -> Tuple[float, float, float]:
        return self.ledger.capacity(name)

    def available(self, name: str) -> Tuple[float, float, float]:
        """Uncommitted capacity of one node (ignores failure state)."""
        return self.ledger.available(name)

    def utilization(self) -> Dict[str, Dict[str, float]]:
        """Per-node committed fraction on every axis: cpu/mem/bandwidth."""
        return self.ledger.utilization()

    def commit(self, placement: Mapping[str, str],
               demands: Mapping[str, ResourceDemand],
               tenant: str = None) -> None:
        """Reserve each placed thread's demand on its node."""
        self.ledger.commit(placement, demands, tenant=tenant)

    def release(self, placement: Mapping[str, str],
                demands: Mapping[str, ResourceDemand],
                tenant: str = None) -> None:
        """Return reservations made by :meth:`commit`."""
        self.ledger.release(placement, demands, tenant=tenant)

    # -- elastic budgets ----------------------------------------------------
    def budget(self, tenant: str) -> float:
        return self.ledger.budget(tenant)

    def used_budget(self, tenant: str) -> float:
        return self.ledger.used_budget(tenant)

    def set_budget(self, tenant: str, cpu: float) -> float:
        return self.ledger.set_budget(tenant, cpu)

    def request_headroom(self, tenant: str, cpu: float, node: str) -> bool:
        return self.ledger.request_headroom(tenant, cpu, node)

    def release_headroom(self, tenant: str, cpu: float, node: str) -> None:
        self.ledger.release_headroom(tenant, cpu, node)

    # -- placement ---------------------------------------------------------
    def _view(self, neighbors: Optional[Mapping] = None,
              exclude=()) -> PlacementView:
        dead = self.failed.union(exclude)
        ledger = self.ledger
        nodes = tuple([n for n in ledger.capacities if n not in dead])
        return PlacementView(
            nodes=nodes,
            capacity=ledger.capacities,  # the whole table: shared, read-only
            available={n: ledger.free[n][:] for n in nodes},
            neighbors=neighbors or {},
        )

    def try_place(self, tenant: str, threads,
                  demands: Mapping[str, ResourceDemand],
                  neighbors: Optional[Mapping] = None,
                  exclude=()) -> Optional[Dict[str, str]]:
        """A feasible thread->node map, or None — no ledger changes.

        ``exclude`` removes extra nodes from the view beyond the failed
        set (arbiters use it to migrate tenants *off* a hot node).
        """
        from repro.errors import ConfigError

        for thread in threads:
            if thread not in demands:
                raise ConfigError(
                    f"tenant {tenant!r}: no demand declared for "
                    f"thread {thread!r}"
                )
        return self.strategy.place(
            tenant, list(threads), demands, self._view(neighbors, exclude)
        )

    def admit(self, tenant: str, threads,
              demands: Mapping[str, ResourceDemand],
              neighbors: Optional[Mapping] = None,
              exclude=()) -> Optional[Dict[str, str]]:
        """Place and commit in one step; None leaves the ledger untouched."""
        placement = self.try_place(tenant, threads, demands, neighbors,
                                   exclude=exclude)
        if placement is not None:
            self.commit(placement, demands, tenant=tenant)
        return placement

    # -- fault surface -------------------------------------------------------
    def mark_failed(self, name: str) -> None:
        """Exclude a crashed node from future placement."""
        self.ledger.capacity(name)  # validates the node exists
        self.failed.add(name)

    def mark_recovered(self, name: str) -> None:
        self.failed.discard(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        used = sum(c[0] for c in self.committed.values())
        total = sum(self.capacity(n)[0] for n in self.committed)
        return (f"<Scheduler {self.strategy.name} "
                f"cpu {used:.1f}/{total:.1f} failed={sorted(self.failed)}>")
