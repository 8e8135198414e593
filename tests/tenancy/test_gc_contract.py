"""Fleets leave nothing for the interpreter's cyclic collector.

``Engine.run`` pauses cycle detection (tests/sim/test_gc_pause.py), so
whatever cycles a run builds stay until it returns. A static fleet must
build none at any horizon; a churned one — departures, revocations,
migrations all kill simulated threads — a small constant, not something
per killed thread (it was ≈ 36 objects per kill while a defused
``ProcessKilled`` kept its traceback).
"""

from repro.cluster.spec import uniform_spec
from repro.tenancy import (
    TenancySpec,
    TenantSpec,
    churn,
    run_tenants,
    scaled_tracker_config,
)
from repro.tenancy.arbiter import ArbiterConfig
from repro.tenancy.tenant import ResourceDemand


def _static_fleet(horizon):
    cfg = scaled_tracker_config(0.02, frame_period=0.25, cv=0.0)
    demand = ResourceDemand(cpu=0.05, mem_bytes=2**20,
                            bandwidth_bps=1_000_000)
    return run_tenants(TenancySpec(
        tenants=tuple(TenantSpec(f"t{i}", app_config=cfg, demand=demand)
                      for i in range(10)),
        cluster=uniform_spec(32, ncpus=16, bandwidth_bps=10**9),
        seed=0, horizon=horizon))


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
