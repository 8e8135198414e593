"""Faults x tenancy: node crashes evict and re-place only the victims."""

import pytest

from repro.cluster.spec import uniform_spec
from repro.faults.spec import FaultSpec
from repro.tenancy import (
    TenancySpec,
    TenantSpec,
    run_tenants,
    scaled_tracker_config,
)
from repro.tenancy.tenant import ResourceDemand

CHEAP = scaled_tracker_config(0.1, frame_period=0.2, cv=0.0)


def _run(tenants, cluster, faults, horizon=8.0, **kwargs):
    return run_tenants(TenancySpec(
        tenants=tenants, cluster=cluster, faults=faults, horizon=horizon,
        **kwargs))


class TestNodeCrash:
    def test_crash_replaces_only_resident_tenants(self):
        # 4 tenants on 6 nodes (rstorm packs each tenant onto one node);
        # crashing node0 must move only its residents.
        tenants = tuple(TenantSpec(f"t{i}", app_config=CHEAP)
                        for i in range(4))
        result = _run(tenants, uniform_spec(6, ncpus=4),
                      (FaultSpec(kind="node_crash", at=3.0,
                                 target="node0"),))
        runtime = result.runtime
        victims = [n for n, rec in result.records.items()
                   if "re-placed off node0" in rec.detail]
        untouched = [n for n in result.records if n not in victims]
        assert victims, "someone must have lived on node0"
        assert untouched, "crash must not touch the whole fleet"
        # victims moved entirely off the dead node and kept running
        for name in victims:
            record = result.records[name]
            assert record.state == "running"
            assert "node0" not in record.placement.values()
            assert record.deliveries > 0
        # untouched tenants never logged a replacement
        replaced = {e[1] for e in result.admission_log
                    if e[2] == "replaced"}
        assert replaced == set(victims)
        # the scheduler ledger moved with the threads
        assert runtime.scheduler.committed["node0"] == [0.0, 0.0, 0.0]
        assert "node0" in runtime.scheduler.failed

    def test_crash_without_capacity_evicts(self):
        # 2 nodes exactly full; crashing one leaves nowhere to go.
        demand = ResourceDemand(cpu=1.0)
        tenants = (
            TenantSpec("a", app_config=CHEAP, demand=demand),
            TenantSpec("b", app_config=CHEAP, demand=demand),
        )
        result = _run(tenants, uniform_spec(2, ncpus=6),
                      (FaultSpec(kind="node_crash", at=3.0,
                                 target="node0"),),
                      admission="reject")
        states = sorted(r.state for r in result.records.values())
        assert states == ["evicted", "running"]
        evicted = next(r for r in result.records.values()
                       if r.state == "evicted")
        assert evicted.departed_at == pytest.approx(3.0)
        assert evicted.deliveries > 0  # it ran until the crash
        # eviction released every reservation the tenant held
        runtime = result.runtime
        total = sum(v[0] for v in runtime.scheduler.committed.values())
        assert total == pytest.approx(6.0)  # only the survivor remains

    def test_restart_node_readmits_queued(self):
        demand = ResourceDemand(cpu=1.0)
        tenants = (
            TenantSpec("a", app_config=CHEAP, demand=demand),
            TenantSpec("b", app_config=CHEAP, demand=demand),
        )
        result = _run(tenants, uniform_spec(2, ncpus=6),
                      (FaultSpec(kind="node_crash", at=2.0, target="node0"),
                       FaultSpec(kind="node_restart", at=4.0,
                                 target="node0")),
                      horizon=8.0)
        # under queue admission the evicted... actually the displaced
        # tenant is evicted terminally; but the recovered node must be
        # placeable again for later arrivals.
        runtime = result.runtime
        assert "node0" not in runtime.scheduler.failed

    def test_replaced_tenant_keeps_delivering(self):
        # Regression: a re-placed producer restarts its timestamp
        # counter at 0 while its pre-crash output items survive in the
        # channels (stable-storage model). Without draining those
        # buffers on re-placement the restarted producer collides with
        # its own surviving items once the counter catches up
        # (``duplicate timestamp`` SimulationError). Needs cross-tenant
        # contention to keep the colliding item alive: full-cost
        # trackers, a throttled victim, a shared heterogeneous cluster.
        from repro.tenancy import TenancySpec, run_tenants

        spec = TenancySpec.from_dict({
            "cluster": {"kind": "heterogeneous", "n_big": 1, "n_small": 3},
            "horizon": 6.0,
            "tenants": [
                {"name": "cam", "count": 3,
                 "app_config": {"frame_period": 0.2},
                 "demand": {"cpu": 0.4, "mem_mb": 8, "bandwidth_mbps": 4}},
                {"name": "vip", "priority": 3, "policy": "aru-max",
                 "app_config": {"frame_period": 0.2},
                 "demand": {"cpu": 0.4, "mem_mb": 8, "bandwidth_mbps": 4}},
            ],
            "faults": [{"kind": "node_crash", "at": 3.0, "node": "small0"}],
            "trace_rows": True,  # the iteration rows read below
        })
        result = run_tenants(spec)
        assert all(r.state == "running" for r in result.records.values())
        victims = [n for n, rec in result.records.items()
                   if "re-placed off small0" in rec.detail]
        assert victims
        for name in victims:
            sink = result.runtime.tenants[name].mapping["gui"]
            post_crash = [it for it in result.trace.iterations_of(sink)
                          if it.t_end > 4.0]
            assert post_crash, f"{name} must keep delivering after move"

    def test_fault_hook_sees_replacement(self):
        tenants = tuple(TenantSpec(f"t{i}", app_config=CHEAP)
                        for i in range(3))
        result = _run(tenants, uniform_spec(4, ncpus=4),
                      (FaultSpec(kind="node_crash", at=3.0,
                                 target="node0"),))
        assert result.fault_log is not None
        symptoms = [e.symptom for e in result.fault_log.symptoms]
        assert "tenant_replaced" in symptoms


class TestStorageTeardown:
    def test_departed_tenant_buffers_drained(self):
        tenants = (
            TenantSpec("stays", app_config=CHEAP),
            TenantSpec("leaves", app_config=CHEAP, departure=3.0),
        )
        result = _run(tenants, uniform_spec(2, ncpus=8), (), horizon=6.0)
        runtime = result.runtime
        leaver = runtime.tenants["leaves"]
        for name in leaver.buffers:
            buffer = runtime.buffers[name]
            assert len(buffer) == 0
            assert buffer.bytes_held == 0
        # the stayer's buffers keep working after the departure
        assert result.records["stays"].deliveries > \
            result.records["leaves"].deliveries
