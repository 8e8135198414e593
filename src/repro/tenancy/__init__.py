"""Multi-tenancy: many applications sharing one simulated cluster.

The tenancy layer turns the cluster into a shared substrate: a
:class:`Scheduler` with pluggable placement strategies admits
:class:`TenantSpec`-described applications into a single
:class:`~repro.tenancy.runtime.TenantRuntime` engine run — every tenant
contending for the same nodes and links, each with its own control
plane, RNG streams, and namespaced graph slice. :func:`run_tenants` is
the front door, mirroring :func:`repro.run_experiment`.

Timescale separation (docs/multi-tenancy.md): the **scheduler** decides
*where* threads run (arrival / departure / fault granularity); the
**arbiter** re-decides *how much* each tenant holds (every arbitration
period — budgets, revocations, migrations); **ARU** decides *how fast*
they consume (every iteration); the **scale controller** decides *how many*
replicas run (every control period, drawing from the arbiter's budget).
"""

from repro.tenancy.arbiter import (
    ARBITERS,
    Arbiter,
    ArbiterConfig,
    ArbiterView,
    Decision,
    TenantView,
    available_arbiters,
    register_arbiter,
    resolve_arbiter_config,
)
from repro.tenancy.fairness import (
    FairnessReport,
    fairness_report,
    jain_index,
    weighted_jain_index,
)
from repro.tenancy.placement import (
    PLACEMENTS,
    PlacementView,
    register_placement,
    resolve_placement,
)
from repro.tenancy.run import (
    TenancyResult,
    TenancySpec,
    TenantRecord,
    churn,
    poisson_arrivals,
    run_tenants,
    scaled_tracker_config,
)
from repro.tenancy.ledger import ReservationLedger
from repro.tenancy.runtime import TenantRuntime
from repro.tenancy.scheduler import (
    ADMISSION_MODES,
    Scheduler,
    resolve_admission,
)
from repro.tenancy.tenant import (
    TENANT_STATES,
    ResourceDemand,
    Tenant,
    TenantSpec,
)

__all__ = [
    "ADMISSION_MODES",
    "ARBITERS",
    "Arbiter",
    "ArbiterConfig",
    "ArbiterView",
    "Decision",
    "FairnessReport",
    "PLACEMENTS",
    "PlacementView",
    "ReservationLedger",
    "ResourceDemand",
    "Scheduler",
    "TENANT_STATES",
    "TenancyResult",
    "TenancySpec",
    "Tenant",
    "TenantRecord",
    "TenantRuntime",
    "TenantSpec",
    "TenantView",
    "available_arbiters",
    "churn",
    "fairness_report",
    "jain_index",
    "poisson_arrivals",
    "register_arbiter",
    "register_placement",
    "resolve_admission",
    "resolve_arbiter_config",
    "resolve_placement",
    "run_tenants",
    "scaled_tracker_config",
    "weighted_jain_index",
]
