"""The arbitration zero-cost contract on a *churned* fleet, the very
workload arbitration exists for: ``arbiter=None`` is the one way to turn
it off and installs nothing, while a live arbiter does change the
schedule."""

import pytest

from repro.cluster.spec import uniform_spec
from repro.errors import ConfigError
from repro.tenancy import (
    TenancySpec,
    TenantSpec,
    churn,
    run_tenants,
    scaled_tracker_config,
)
from repro.tenancy.tenant import ResourceDemand

SEED = 11
HORIZON = 8.0


def _spec(arbiter):
    cfg = scaled_tracker_config(0.1, frame_period=0.2, cv=0.0)
    tenants = churn(
        tuple(
            TenantSpec(f"t{i}", app_config=cfg,
                       demand=ResourceDemand(cpu=0.75, bandwidth_bps=100))
            for i in range(5)
        ),
        rate=1.0, mean_lifetime=4.0, seed=SEED,
    )
    return TenancySpec(
        tenants=tenants, cluster=uniform_spec(2, ncpus=4),
        seed=SEED, horizon=HORIZON, arbiter=arbiter,
    )


@pytest.fixture(scope="module")
def off():
    return run_tenants(_spec(None))


def test_neither_reports_arbitration(off):
    assert off.arbitration is None
    assert off.runtime.arbiter is None
    with pytest.raises(ConfigError, match="unknown arbiter 'null'"):
        _spec("null")


def test_live_arbiter_changes_the_schedule(off):
    # Sanity that the differential is meaningful: the proportional
    # arbiter on the same churned fleet adds events (its controller
    # ticks) — the contract is only that *off* costs nothing.
    live = run_tenants(_spec("proportional"))
    assert live.arbitration is not None
    assert live.stats["engine"]["events_processed"] > \
        off.stats["engine"]["events_processed"]
