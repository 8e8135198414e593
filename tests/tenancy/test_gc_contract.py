"""Fleets leave nothing for the interpreter's cyclic collector.

``Engine.run`` pauses cycle detection (tests/sim/test_gc_pause.py), so
whatever cycles a run builds stay until it returns. A static fleet must
build none at any horizon; a churned one — departures, revocations,
migrations all kill simulated threads — a small constant, not something
per killed thread (it was ≈ 36 objects per kill while a defused
``ProcessKilled`` kept its traceback).

Bulk admission — ``run_tenants``' static fleet — pauses the collector
too, on the same argument: admitting N tenants builds no unreachable
cycle, so a collection during it would only re-walk reachable objects
(4 full collections for 1 000 tenants).
"""

import gc

import pytest

from repro.cluster.spec import uniform_spec
from repro.tenancy import (
    Scheduler,
    TenancySpec,
    TenantRuntime,
    TenantSpec,
    churn,
    run_tenants,
    scaled_tracker_config,
)
from repro.tenancy.arbiter import ArbiterConfig
from repro.tenancy.tenant import ResourceDemand, Tenant


def _light_fleet_spec(tenants, horizon):
    cfg = scaled_tracker_config(0.02, frame_period=0.25, cv=0.0)
    demand = ResourceDemand(cpu=0.05, mem_bytes=2**20,
                            bandwidth_bps=1_000_000)
    return TenancySpec(
        tenants=tuple(TenantSpec(f"t{i}", app_config=cfg, demand=demand)
                      for i in range(tenants)),
        cluster=uniform_spec(32, ncpus=16, bandwidth_bps=10**9),
        seed=0, horizon=horizon)


def _static_fleet(horizon):
    return run_tenants(_light_fleet_spec(10, horizon))


def _admitted(tenants):
    """What ``run_tenants`` admits before its engine runs, and no more."""
    spec = _light_fleet_spec(tenants, horizon=1.0)
    config = spec.runtime_config()
    runtime = TenantRuntime(config, Scheduler(config.cluster))
    for tenant in spec.tenants:
        assert runtime.arrive(Tenant(tenant)) == "admitted"
    return runtime


@pytest.fixture
def collections_while_admitting(monkeypatch):
    """Generations of the collections that start inside an admission,
    and whether the collector was enabled as each admission began."""
    seen = {"collections": [], "enabled": []}
    inside = []
    admit = TenantRuntime.admit_tenant

    def traced(self, tenant):
        seen["enabled"].append(gc.isenabled())
        inside.append(tenant)
        try:
            return admit(self, tenant)
        finally:
            inside.pop()

    def on_collection(phase, info):
        if phase == "start" and inside:
            seen["collections"].append(info["generation"])

    monkeypatch.setattr(TenantRuntime, "admit_tenant", traced)
    gc.callbacks.append(on_collection)
    yield seen
    gc.callbacks.remove(on_collection)


def _churned_fleet(horizon):
    heavy = scaled_tracker_config(0.15, frame_period=0.2, cv=0.0)
    light = scaled_tracker_config(0.05, frame_period=0.2, cv=0.0)
    fleet = tuple(
        TenantSpec(f"t{i}", app_config=heavy if i % 2 == 0 else light,
                   weight=float(1 + i % 3),
                   demand=ResourceDemand(cpu=1.0 if i % 2 == 0 else 0.75,
                                         bandwidth_bps=100))
        for i in range(40))
    return run_tenants(TenancySpec(
        tenants=churn(fleet, rate=8.0, mean_lifetime=3.0, seed=0),
        cluster=uniform_spec(8, ncpus=4),
        arbiter=ArbiterConfig(policy="proportional", interval=1.0,
                              patience=1.5, min_residency=2.0,
                              max_revocations=4),
        seed=0, horizon=horizon))


def test_static_fleet_leaves_no_cycles(unreachable_after):
    _static_fleet(0.5)
    short, res_short = unreachable_after(lambda: _static_fleet(4.0))
    long, res_long = unreachable_after(lambda: _static_fleet(16.0))
    events = [r.stats["engine"]["events_processed"]
              for r in (res_short, res_long)]
    assert events[1] > 3 * events[0]
    assert (short, long) == (0, 0)


def test_churned_fleet_leaves_a_constant_not_one_per_kill(unreachable_after):
    _churned_fleet(1.0)
    short, res_short = unreachable_after(lambda: _churned_fleet(4.0))
    long, res_long = unreachable_after(lambda: _churned_fleet(16.0))
    # The scenario really exercises every kill path, and the long run
    # has several times the departures of the short one.
    assert res_long.arbitration["revocations"] >= 1
    assert res_long.arbitration["migrations"] >= 1
    departed = [sum(1 for r in res.records.values() if r.departed_at is not None)
                for res in (res_short, res_long)]
    assert departed[1] >= 3 * max(1, departed[0])
    assert short <= 50 and long <= 50


def test_admission_leaves_no_cycles(unreachable_after):
    _admitted(2)
    few, _ = unreachable_after(lambda: _admitted(5))
    many, _ = unreachable_after(lambda: _admitted(60))
    assert (few, many) == (0, 0)


def test_static_admission_runs_no_collection(collections_while_admitting):
    assert gc.isenabled()
    result = run_tenants(_light_fleet_spec(60, horizon=0.5))
    assert gc.isenabled()
    assert len(result.admission_log) == 60
    # 60 light tenants allocate enough for several gen-0 collections, and
    # (in a big enough fleet) full ones, when the collector is not paused.
    assert collections_while_admitting["enabled"] == [False] * 60
    assert collections_while_admitting["collections"] == []
