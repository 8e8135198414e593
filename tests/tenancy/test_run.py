"""End-to-end multi-tenant runs: coexistence, fairness, dynamics."""

import os

import pytest

from repro.apps import elastic_pipeline
from repro.aru.operators import resolve as resolve_operator
from repro.cluster.spec import uniform_spec
from repro.errors import ConfigError
from repro.tenancy import (
    Scheduler,
    TenancySpec,
    TenantRuntime,
    TenantSpec,
    churn,
    poisson_arrivals,
    run_tenants,
    scaled_tracker_config,
)
from repro.tenancy.tenant import RUNNING, ResourceDemand, Tenant

CHEAP = scaled_tracker_config(0.1, frame_period=0.2, cv=0.0)


def _fleet(n, **kwargs):
    return tuple(TenantSpec(f"t{i}", app_config=CHEAP, **kwargs)
                 for i in range(n))


class TestCoexistence:
    def test_tenants_share_one_engine(self):
        result = run_tenants(TenancySpec(tenants=_fleet(3), cluster=4,
                                         horizon=4.0))
        runtime = result.runtime
        # one engine, namespaced threads from every tenant
        assert "t0/gui" in runtime.drivers
        assert "t2/digitizer" in runtime.drivers
        assert all(r.state == "running" for r in result.records.values())
        assert all(r.deliveries > 0 for r in result.records.values())

    def test_equal_tenants_equal_goodput(self):
        # Identical derived workloads? No — each tenant derives its own
        # seed. But with cv=0 costs the goodputs still match exactly.
        result = run_tenants(TenancySpec(tenants=_fleet(6), cluster=6,
                                         horizon=5.0))
        deliveries = {r.deliveries for r in result.records.values()}
        assert len(deliveries) == 1

    def test_per_tenant_policies_are_private(self):
        tenants = (
            TenantSpec("throttled", app_config=CHEAP, policy="aru-max"),
            TenantSpec("free", app_config=CHEAP),
        )
        result = run_tenants(TenancySpec(tenants=tenants, cluster=2,
                                         horizon=5.0))
        runtime = result.runtime
        throttled = runtime.tenants["throttled"]
        free = runtime.tenants["free"]
        assert throttled.aru.enabled and not free.aru.enabled
        assert throttled.bus is not free.bus

    def test_jain_fairness_medium_fleet(self):
        # The acceptance bar scaled to tier-1 budget: a few dozen
        # equal-priority tenants under rstorm must share near-evenly.
        n = 60
        light = ResourceDemand(cpu=0.2, mem_bytes=2**20,
                               bandwidth_bps=1_000_000)
        result = run_tenants(TenancySpec(
            tenants=_fleet(n, demand=light),
            cluster=uniform_spec(8, ncpus=16),
            horizon=3.0,
        ))
        assert len(result.admitted) == n
        assert result.fairness.jain >= 0.9


def assert_wired_for_owner(runtime):
    """Every live driver and buffer is wired for the tenant that owns it:
    the driver kept that tenant as its scope, its task body sees the
    local names its graph declared, it draws from the tenant's stream
    and runs the tenant's policy; the tenant's buffers report to the
    tenant's bus and to no other."""
    live = [t for t in runtime.tenants.values() if t.state == RUNNING]
    assert {d.scope.name for d in runtime.drivers.values()} \
        == {t.name for t in live}
    for name, driver in runtime.drivers.items():
        tenant = driver.scope
        assert tenant is runtime.tenants[tenant.name]
        local = name[len(tenant.prefix):]
        assert tenant.prefix + local == name
        for conns, wired in ((driver.in_conns, runtime.graph.inputs_of(name)),
                             (driver.out_conns, runtime.graph.outputs_of(name))):
            assert [tenant.prefix + key for key in conns] == wired
            assert all(buffer.name in tenant.buffers
                       for buffer, _conn in conns.values())
        assert driver.ctx.rng is tenant.rngs.stream(f"task.{local}")
        state = driver.aru
        assert (state is not None) == tenant.aru.enabled
        if state is not None:
            assert state.backward.op is resolve_operator(tenant.aru.thread_op)
    for tenant in live:
        assert set(tenant.threads) <= set(runtime.drivers)
        for name in tenant.buffers:
            endpoint = runtime.buffers[name].feedback
            assert (endpoint is not None) == tenant.aru.enabled
            assert tenant.bus.endpoints.get(name) is endpoint
            assert name not in runtime.feedback_bus.endpoints
            assert not any(name in other.bus.endpoints
                           for other in runtime.tenants.values()
                           if other is not tenant)


def sink_deliveries(runtime, tenant):
    return sum(len(runtime.recorder.iterations_of(t)) for t in tenant.threads
               if runtime.graph.is_sink(t))


def tracker_and_pool(nodes, tracker: TenantSpec, pool: TenantSpec):
    """A bare ``TenantRuntime`` with both tenants admitted, to be driven
    step by step."""
    cluster = uniform_spec(nodes, ncpus=16)
    runtime = TenantRuntime(TenancySpec(cluster=cluster).runtime_config(),
                            Scheduler(cluster))
    tenants = Tenant(tracker), Tenant(pool)
    for tenant in tenants:
        assert runtime.arrive(tenant) == "admitted"
    return (runtime, *tenants)


class TestNamespace:
    """A namespace is any prefix ending in ``/`` (or the empty one), not
    only ``<name>/``: ownership is recorded when a tenant is wired and
    read back from there, never parsed out of a node's name."""

    def test_custom_namespace_tenant_runs_under_its_own_policy(self):
        result = run_tenants(TenancySpec(
            tenants=(TenantSpec("a", app_config=CHEAP, namespace="ns1/",
                                policy="aru-min"),),
            cluster=2, horizon=4.0))
        runtime = result.runtime
        assert result.records["a"].deliveries > 0
        assert list(runtime.drivers["ns1/change_detection"].in_conns) == ["C1"]
        assert runtime.drivers["ns1/digitizer"].controller.throttled
        assert_wired_for_owner(runtime)

    def test_custom_and_blank_namespace_keep_private_planes(self):
        result = run_tenants(TenancySpec(
            tenants=(TenantSpec("a", app_config=CHEAP, namespace="x/",
                                policy="aru-max"),
                     TenantSpec("b", app_config=CHEAP, namespace="",
                                policy="aru-min")),
            cluster=2, horizon=4.0))
        runtime = result.runtime
        a, b = runtime.tenants["a"], runtime.tenants["b"]
        assert a.bus is not b.bus
        assert set(a.bus.endpoints) == set(a.buffers)
        assert set(b.bus.endpoints) == set(b.buffers)
        assert all(r.deliveries > 0 for r in result.records.values())
        assert_wired_for_owner(runtime)

    def test_by_name_entry_points_rewire_for_the_same_tenant(self):
        runtime, tracker, pool = tracker_and_pool(
            3,
            TenantSpec("a", app_config=CHEAP, namespace="ns1/",
                       policy="aru-min"),
            TenantSpec("p", app=elastic_pipeline(replicas=1, max_replicas=4),
                       namespace="pool/", policy="aru-max"))
        runtime.advance(1.0)

        old = runtime.drivers["ns1/digitizer"]
        runtime.restart_thread("ns1/digitizer")
        assert runtime.drivers["ns1/digitizer"] is not old
        assert_wired_for_owner(runtime)

        replica = runtime.scale_out(pool.stages[0])
        assert replica.startswith("pool/workers")
        assert runtime.drivers[replica].scope is pool
        assert_wired_for_owner(runtime)

        # Both tenants were packed onto one node. Crashing it re-places
        # each as a unit; the elastic replica held no reservation to
        # move, so it stays dead until its stage reaps it, and the next
        # scale-out lands where the stage's first replica went.
        node = tracker.placement["ns1/digitizer"]
        assert pool.placement["pool/source"] == node
        runtime.crash_node(node)
        assert tracker.state == pool.state == RUNNING
        assert node not in {*tracker.placement.values(),
                            *pool.placement.values()}
        runtime.advance(0.1)  # the engine delivers the kill
        assert not runtime.thread_alive(replica)
        assert runtime.reap_dead_replicas(pool.stages[0]) == 1
        assert_wired_for_owner(runtime)
        replica = runtime.scale_out(pool.stages[0])
        assert runtime.drivers[replica].scope is pool
        assert runtime.drivers[replica].node.name \
            == pool.placement["pool/workers[0]"]

        before = sink_deliveries(runtime, tracker), sink_deliveries(runtime, pool)
        runtime.advance(2.0)
        assert sink_deliveries(runtime, tracker) > before[0]
        assert sink_deliveries(runtime, pool) > before[1]
        assert runtime.thread_alive(replica)
        assert_wired_for_owner(runtime)


class TestOwnershipSurvivesTheLifecycle:
    def test_admit_revoke_readmit_migrate_crash_scale_depart(self):
        runtime, tracker, pool = tracker_and_pool(
            4,
            TenantSpec("t", app_config=CHEAP, policy="aru-max"),
            TenantSpec("p", app=elastic_pipeline(replicas=2, max_replicas=4),
                       namespace="pool/", policy="aru-min"))

        def step(dt=0.5):
            assert_wired_for_owner(runtime)
            runtime.advance(dt)
            assert_wired_for_owner(runtime)

        step(1.0)

        runtime.revoke_tenant(tracker)
        assert not set(tracker.threads) & set(runtime.drivers)
        step()
        assert runtime.retry_queued() == 1 and tracker.state == RUNNING
        step()

        was_on = set(tracker.placement.values())
        assert runtime.migrate_tenant(tracker, exclude=tuple(was_on))
        assert not was_on & set(tracker.placement.values())
        step()

        runtime.crash_node(pool.placement["pool/source"])
        assert pool.state == RUNNING and "replaced" in {
            entry[2] for entry in runtime.admission_log if entry[1] == "p"}
        step()

        replica = runtime.scale_out(pool.stages[0])
        assert runtime.drivers[replica].scope is pool
        step(1.0)

        delivered = sink_deliveries(runtime, pool)
        runtime.depart_tenant(tracker)
        assert not set(tracker.threads) & set(runtime.drivers)
        step(1.0)
        assert sink_deliveries(runtime, pool) > delivered
        assert sink_deliveries(runtime, tracker) > 0


class TestDynamics:
    def test_arrival_and_departure(self):
        tenants = (
            TenantSpec("early", app_config=CHEAP),
            TenantSpec("late", app_config=CHEAP, arrival=2.0, departure=4.0),
        )
        result = run_tenants(TenancySpec(tenants=tenants, cluster=2,
                                         horizon=6.0))
        late = result.records["late"]
        assert late.state == "departed"
        assert late.admitted_at == pytest.approx(2.0)
        assert late.departed_at == pytest.approx(4.0)
        # a departed tenant's storage is reclaimed
        runtime = result.runtime
        for name in runtime.tenants["late"].buffers:
            assert len(runtime.buffers[name]) == 0
        assert result.records["early"].state == "running"

    def test_queue_admission_waits_for_capacity(self):
        demand = ResourceDemand(cpu=1.0)
        tenants = (
            TenantSpec("hog", app_config=CHEAP, demand=demand,
                       departure=3.0),
            TenantSpec("waiter", app_config=CHEAP, demand=demand,
                       arrival=1.0),
        )
        result = run_tenants(TenancySpec(
            tenants=tenants, cluster=uniform_spec(1, ncpus=6),
            horizon=6.0))
        waiter = result.records["waiter"]
        assert waiter.state == "running"
        # admitted only after the hog departed at t=3
        assert waiter.admitted_at == pytest.approx(3.0)
        decisions = [(t, n, d) for t, n, d, _ in result.admission_log]
        assert (1.0, "waiter", "queued") in decisions

    def test_reject_admission_is_terminal(self):
        demand = ResourceDemand(cpu=1.0)
        tenants = (
            TenantSpec("hog", app_config=CHEAP, demand=demand,
                       departure=2.0),
            TenantSpec("turned-away", app_config=CHEAP, demand=demand,
                       arrival=1.0),
        )
        result = run_tenants(TenancySpec(
            tenants=tenants, cluster=uniform_spec(1, ncpus=6),
            admission="reject", horizon=5.0))
        assert result.records["turned-away"].state == "rejected"
        assert result.records["turned-away"].deliveries == 0

    def test_priority_orders_static_admission(self):
        demand = ResourceDemand(cpu=1.0)
        tenants = (
            TenantSpec("low", app_config=CHEAP, demand=demand, priority=0),
            TenantSpec("high", app_config=CHEAP, demand=demand, priority=5),
        )
        result = run_tenants(TenancySpec(
            tenants=tenants, cluster=uniform_spec(1, ncpus=6),
            admission="reject", horizon=3.0))
        assert result.records["high"].state == "running"
        assert result.records["low"].state == "rejected"

    def test_departure_while_queued_leaves_queue(self):
        demand = ResourceDemand(cpu=1.0)
        tenants = (
            TenantSpec("hog", app_config=CHEAP, demand=demand),
            TenantSpec("gives-up", app_config=CHEAP, demand=demand,
                       arrival=1.0, departure=2.0),
        )
        result = run_tenants(TenancySpec(
            tenants=tenants, cluster=uniform_spec(1, ncpus=6),
            horizon=4.0))
        record = result.records["gives-up"]
        assert record.state == "departed"
        assert record.admitted_at is None
        assert not result.runtime.queued


class TestDeterminism:
    def test_same_spec_same_results(self):
        spec = TenancySpec(tenants=_fleet(4), cluster=4, horizon=3.0,
                           seed=3)
        a = run_tenants(spec)
        b = run_tenants(spec)
        assert {n: r.deliveries for n, r in a.records.items()} == \
            {n: r.deliveries for n, r in b.records.items()}
        assert a.stats["engine"]["events_processed"] == \
            b.stats["engine"]["events_processed"]

    def test_poisson_arrivals_deterministic(self):
        base = _fleet(5)
        a = poisson_arrivals(base, rate=2.0, seed=1)
        b = poisson_arrivals(base, rate=2.0, seed=1)
        assert [t.arrival for t in a] == [t.arrival for t in b]
        assert all(t.arrival > 0 for t in a)
        assert [t.arrival for t in poisson_arrivals(base, rate=2.0, seed=2)] \
            != [t.arrival for t in a]

    def test_churn_stamps_departures(self):
        stamped = churn(_fleet(5), rate=2.0, mean_lifetime=3.0, seed=1)
        for spec in stamped:
            assert spec.departure > spec.arrival

    def test_churn_run_completes(self):
        tenants = churn(_fleet(6), rate=3.0, mean_lifetime=2.0, seed=5)
        result = run_tenants(TenancySpec(tenants=tenants, cluster=4,
                                         horizon=6.0))
        states = {r.state for r in result.records.values()}
        assert states <= {"running", "departed", "queued"}
        assert "departed" in states


class TestValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            TenancySpec(tenants=(TenantSpec("a"), TenantSpec("a")))

    def test_two_blank_namespaces_rejected(self):
        with pytest.raises(ConfigError, match="blank-namespace"):
            TenancySpec(tenants=(TenantSpec("a", namespace=""),
                                 TenantSpec("b", namespace="")))

    def test_empty_population_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            run_tenants(TenancySpec(horizon=1.0))

    def test_bad_cluster_rejected(self):
        with pytest.raises(ConfigError, match="cluster"):
            TenancySpec(tenants=(TenantSpec("a"),),
                        cluster="nope").resolve_cluster()

    def test_scaled_tracker_config_validation(self):
        with pytest.raises(ConfigError, match="factor"):
            scaled_tracker_config(0)
        cfg = scaled_tracker_config(0.5, cv=0.0)
        assert cfg.grab_cost.mean == pytest.approx(0.003)
        assert cfg.grab_cost.cv == 0.0


class TestTelemetry:
    def test_per_tenant_delivery_counters(self):
        result = run_tenants(TenancySpec(tenants=_fleet(2), cluster=2,
                                         horizon=3.0, telemetry=True))
        from repro.obs import prometheus_text

        hub = result.telemetry
        text = prometheus_text(hub)
        assert 'repro_tenant_deliveries_total{tenant="t0"}' in text
        assert 'repro_tenant_events_total{phase="admitted"}' in text
        # the counter agrees with the trace
        for name, record in result.records.items():
            value = hub.metrics.value("repro_tenant_deliveries_total",
                                      {"tenant": name})
            assert int(value) == record.deliveries


@pytest.mark.perf
@pytest.mark.skipif(
    not os.environ.get("REPRO_PERF"),
    reason="wall-clock gate; set REPRO_PERF=1 to run",
)
def test_thousand_tenants_on_32_nodes():
    """The acceptance-scale fleet: 1000 tenants, one engine, Jain >= 0.9."""
    import time

    cfg = scaled_tracker_config(0.02, frame_period=0.25, cv=0.0)
    tenants = tuple(
        TenantSpec(f"t{i}", app_config=cfg,
                   demand=ResourceDemand(cpu=0.05, mem_bytes=2**20,
                                         bandwidth_bps=1_000_000))
        for i in range(1000)
    )
    t0 = time.perf_counter()
    result = run_tenants(TenancySpec(
        tenants=tenants,
        cluster=uniform_spec(32, ncpus=16, bandwidth_bps=10**9),
        horizon=3.0,
    ))
    wall = time.perf_counter() - t0
    assert len(result.admitted) == 1000
    assert result.fairness.jain >= 0.9
    assert wall < 300, f"1000-tenant run took {wall:.0f}s"
