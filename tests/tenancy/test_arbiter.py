"""The arbitration plane: registry, policies on hand-built views, and
the runtime's revoke/migrate/budget machinery end to end."""

import pytest

from repro.cluster.spec import uniform_spec
from repro.errors import ConfigError
from repro.tenancy import (
    ARBITERS,
    ArbiterConfig,
    TenancySpec,
    TenantSpec,
    available_arbiters,
    register_arbiter,
    resolve_arbiter_config,
    run_tenants,
    scaled_tracker_config,
)
from repro.tenancy.arbiter import (
    Arbiter,
    ArbiterView,
    Decision,
    DemandArbiter,
    ProportionalArbiter,
    TenantView,
)
from repro.tenancy.tenant import ResourceDemand


# -- view builders -----------------------------------------------------------

def _tenant(name, state="running", **kw):
    defaults = dict(
        priority=0, weight=1.0, base_cpu=2.0, demand_cpu=2.0, n_threads=4,
        budget=0.0, budget_used=0.0, nodes=("node0",), admitted_at=0.0,
    )
    defaults.update(kw)
    return TenantView(name=name, state=state, **defaults)


def _view(tenants, now=10.0, total=8.0, free=0.0, **kw):
    return ArbiterView(now=now, total_cpu=total, free_cpu=free,
                       tenants=tuple(tenants), **kw)


# -- registry ----------------------------------------------------------------

class TestRegistry:
    def test_builtins_listed(self):
        assert {"proportional", "demand"} <= set(available_arbiters())
        assert "null" not in available_arbiters()

    def test_help_text_covers_builtins(self):
        text = ARBITERS.help_text()
        for name in available_arbiters():
            assert name in text

    def test_unknown_name_gets_suggestion(self):
        with pytest.raises(ConfigError, match="did you mean 'proportional'"):
            resolve_arbiter_config("proportionol")

    def test_name_resolves_to_config(self):
        config = resolve_arbiter_config("demand")
        assert isinstance(config, ArbiterConfig)
        assert config.policy == "demand"

    def test_none_means_off(self):
        assert resolve_arbiter_config(None) is None

    def test_custom_arbiter_registers_and_builds(self):
        class Greedy(Arbiter):
            name = "greedy-test"

            def decide(self, view):
                return []

        register_arbiter("greedy-test", lambda cfg: Greedy())
        config = resolve_arbiter_config("greedy-test")
        assert isinstance(ARBITERS.get(config.policy)(config), Greedy)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"interval": 0.0},
        {"patience": -1.0},
        {"min_residency": -0.1},
        {"target_utilization": 1.5},
        {"latency_bias": -1.0},
        {"max_revocations": -1},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ArbiterConfig(**kwargs)

    def test_bad_decision_kind_rejected(self):
        with pytest.raises(ConfigError, match="decision kind"):
            Decision("evaporate", "t")


# -- proportional ------------------------------------------------------------

class TestProportional:
    def test_budgets_fill_to_weighted_share(self):
        arb = ProportionalArbiter(ArbiterConfig())
        view = _view([
            _tenant("heavy", weight=3.0, base_cpu=2.0),
            _tenant("light", weight=1.0, base_cpu=2.0),
        ], total=8.0)
        by_tenant = {d.tenant: d for d in arb.decide(view)
                     if d.kind == "grow"}
        # heavy's share = 8 * 3/4 = 6 -> budget 4; light's share 2 -> 0.
        assert by_tenant["heavy"].cpu == pytest.approx(4.0)
        assert "light" not in by_tenant

    def test_shrink_when_over_share(self):
        arb = ProportionalArbiter(ArbiterConfig())
        view = _view([
            _tenant("a", weight=1.0, base_cpu=2.0, budget=5.0),
            _tenant("b", weight=1.0, base_cpu=2.0),
        ], total=8.0)
        shrink = [d for d in arb.decide(view) if d.kind == "shrink"]
        assert shrink and shrink[0].tenant == "a"
        assert shrink[0].cpu == pytest.approx(2.0)

    def test_starved_queued_tenant_triggers_revocation(self):
        arb = ProportionalArbiter(ArbiterConfig(patience=2.0,
                                                min_residency=3.0))
        view = _view([
            _tenant("hog", weight=1.0, base_cpu=6.0, admitted_at=0.0),
            _tenant("waiting", state="queued", base_cpu=0.0, demand_cpu=3.0,
                    queued_since=5.0, nodes=()),
        ], now=10.0, total=8.0, free=2.0)
        revokes = [d for d in arb.decide(view) if d.kind == "revoke"]
        assert revokes and revokes[0].tenant == "hog"
        assert "waiting" in revokes[0].reason

    def test_no_revocation_within_patience(self):
        arb = ProportionalArbiter(ArbiterConfig(patience=4.0))
        view = _view([
            _tenant("hog", base_cpu=6.0),
            _tenant("waiting", state="queued", base_cpu=0.0, demand_cpu=3.0,
                    queued_since=8.0, nodes=()),
        ], now=10.0, total=8.0, free=2.0)
        assert not [d for d in arb.decide(view) if d.kind == "revoke"]

    def test_no_revocation_within_min_residency(self):
        arb = ProportionalArbiter(ArbiterConfig(min_residency=5.0))
        view = _view([
            _tenant("young", base_cpu=6.0, admitted_at=8.0),
            _tenant("waiting", state="queued", base_cpu=0.0, demand_cpu=3.0,
                    queued_since=0.0, nodes=()),
        ], now=10.0, total=8.0, free=2.0)
        assert not [d for d in arb.decide(view) if d.kind == "revoke"]

    def test_no_revocation_when_free_cpu_suffices(self):
        # Fragmentation, not scarcity: revoking would be pure churn.
        arb = ProportionalArbiter(ArbiterConfig())
        view = _view([
            _tenant("hog", base_cpu=4.0),
            _tenant("waiting", state="queued", base_cpu=0.0, demand_cpu=3.0,
                    queued_since=0.0, nodes=()),
        ], now=10.0, total=8.0, free=4.0)
        assert not [d for d in arb.decide(view) if d.kind == "revoke"]

    def test_higher_priority_tenant_never_revoked_for_lower(self):
        arb = ProportionalArbiter(ArbiterConfig())
        view = _view([
            _tenant("vip", priority=2, base_cpu=6.0),
            _tenant("waiting", state="queued", priority=0, base_cpu=0.0,
                    demand_cpu=3.0, queued_since=0.0, nodes=()),
        ], now=10.0, total=8.0, free=2.0)
        assert not [d for d in arb.decide(view) if d.kind == "revoke"]

    def test_defrag_migration_for_fragmented_fit(self):
        arb = ProportionalArbiter(ArbiterConfig())
        view = _view([
            _tenant("scattered", base_cpu=2.0, nodes=("node0", "node1")),
            _tenant("waiting", state="queued", base_cpu=0.0, demand_cpu=3.0,
                    queued_since=0.0, nodes=()),
        ], now=10.0, total=8.0, free=4.0)
        migrates = [d for d in arb.decide(view) if d.kind == "migrate"]
        assert migrates and migrates[0].tenant == "scattered"

    def test_latency_bias_shifts_share_toward_backlogged(self):
        flat = ProportionalArbiter(ArbiterConfig(latency_bias=0.0))
        biased = ProportionalArbiter(ArbiterConfig(latency_bias=1.0))
        tenants = [
            _tenant("behind", base_cpu=2.0, backlog=40, n_threads=4),
            _tenant("ahead", base_cpu=2.0, backlog=0, n_threads=4),
        ]
        flat_b = {d.tenant: d.cpu for d in flat.decide(_view(tenants))
                  if d.kind in ("grow", "shrink")}
        biased_b = {d.tenant: d.cpu for d in biased.decide(_view(tenants))
                    if d.kind in ("grow", "shrink")}
        assert biased_b.get("behind", 0.0) > flat_b.get("behind", 0.0)


# -- demand ------------------------------------------------------------------

class TestDemand:
    def test_erlang_estimate_sizes_budget(self):
        arb = DemandArbiter(ArbiterConfig(policy="demand",
                                          target_utilization=0.7))
        view = _view([_tenant(
            "busy", base_cpu=2.0, demand_cpu=2.0, n_threads=4,
            arrival_rate=20.0, service_time=0.2, observed_cpu=4.0,
        )], total=16.0)
        grows = [d for d in arb.decide(view) if d.kind == "grow"]
        # lambda*s = 4 erlangs at 70% target needs >= 6 servers
        # (required_replicas), so > 3 cpu at 0.5/server -> budget > 1.
        assert grows and grows[0].tenant == "busy"
        assert grows[0].cpu > 0.0

    def test_observed_fallback_without_rates(self):
        arb = DemandArbiter(ArbiterConfig(policy="demand",
                                          target_utilization=0.5))
        view = _view([_tenant(
            "warm", base_cpu=2.0, observed_cpu=3.0, arrival_rate=0.0,
        )], total=16.0)
        grows = [d for d in arb.decide(view) if d.kind == "grow"]
        # 3.0 observed / 0.5 target = 6 estimated -> budget 4 over base.
        assert grows and grows[0].cpu == pytest.approx(4.0)

    def test_hot_node_sheds_smallest_tenant(self):
        arb = DemandArbiter(ArbiterConfig(policy="demand"))
        view = _view(
            [
                _tenant("big", observed_cpu=5.0, nodes=("node0",)),
                _tenant("small", observed_cpu=1.0, nodes=("node0",)),
            ],
            total=8.0,
            node_capacity={"node0": 4.0, "node1": 4.0},
            node_observed={"node0": 6.0, "node1": 0.0},
        )
        migrates = [d for d in arb.decide(view) if d.kind == "migrate"]
        assert migrates and migrates[0].tenant == "small"
        assert migrates[0].exclude == ("node0",)

    def test_no_migration_when_rest_of_cluster_full(self):
        arb = DemandArbiter(ArbiterConfig(policy="demand"))
        view = _view(
            [_tenant("small", observed_cpu=1.0, nodes=("node0",))],
            total=8.0,
            node_capacity={"node0": 4.0, "node1": 4.0},
            node_observed={"node0": 6.0, "node1": 4.5},
        )
        assert not [d for d in arb.decide(view) if d.kind == "migrate"]


# -- runtime integration -----------------------------------------------------

def _fleet(n, cluster_nodes=2, arbiter=None, horizon=8.0, cpu=0.5, **kw):
    cfg = scaled_tracker_config(0.1, frame_period=0.2, cv=0.0)
    return TenancySpec(
        tenants=tuple(
            TenantSpec(f"t{i}", app_config=cfg, weight=float(1 + i),
                       demand=ResourceDemand(cpu=cpu, bandwidth_bps=100))
            for i in range(n)
        ),
        cluster=uniform_spec(cluster_nodes, ncpus=4),
        arbiter=arbiter, horizon=horizon, **kw,
    )


class TestRuntimeIntegration:
    def test_revocation_time_shares_a_scarce_cluster(self):
        # One 2-node cluster, tenants too big to all fit: without an
        # arbiter the late arrivals starve in the queue forever; with
        # the proportional arbiter the hogs get revoked and the queue
        # drains — every tenant runs at some point.
        spec = _fleet(
            4, arbiter=ArbiterConfig(interval=1.0, patience=1.5,
                                     min_residency=2.0, max_revocations=1),
            horizon=16.0, cpu=1.0,
        )
        packed = run_tenants(spec.with_(arbiter=None))
        arbitrated = run_tenants(spec)
        starved = [r for r in packed.records.values() if r.residence == 0]
        assert starved, "scenario must actually starve someone"
        assert arbitrated.arbitration["revocations"] > 0
        assert all(r.residence > 0 for r in arbitrated.records.values())
        revoked = [r for r in arbitrated.records.values()
                   if r.revocations > 0]
        assert revoked
        phases = [row[2] for row in arbitrated.admission_log]
        assert "revoked" in phases

    def test_null_arbiter_installs_nothing(self):
        """Arbitration off is ``arbiter=None``."""
        spec = _fleet(2, arbiter=None)
        result = run_tenants(spec)
        assert result.arbitration is None
        assert result.runtime.arbiter is None

    def test_revoked_tenant_readmits_and_counts_residence(self):
        spec = _fleet(
            4, arbiter=ArbiterConfig(interval=1.0, patience=1.5,
                                     min_residency=2.0),
            horizon=16.0, cpu=1.0,
        )
        result = run_tenants(spec)
        revoked = [r for r in result.records.values() if r.revocations > 0]
        assert revoked
        for rec in revoked:
            assert rec.residence > 0
            # A revoked-then-readmitted tenant keeps producing.
            assert rec.deliveries > 0

    def test_arbitrated_run_reports_budget_audit(self):
        spec = _fleet(3, arbiter="proportional")
        result = run_tenants(spec)
        assert result.arbitration["ticks"] > 0
        assert isinstance(result.arbitration["tenants"], dict)

    def test_migrate_tenant_moves_placement(self):
        from repro.tenancy.runtime import TenantRuntime
        from repro.tenancy.scheduler import Scheduler
        from repro.runtime.runtime import RuntimeConfig
        from repro.tenancy.tenant import Tenant

        cluster = uniform_spec(3, ncpus=8)
        config = RuntimeConfig(cluster=cluster, placement={})
        runtime = TenantRuntime(config, Scheduler(cluster))
        tenant = Tenant(TenantSpec(
            "mover", demand=ResourceDemand(cpu=0.25, bandwidth_bps=100)))
        assert runtime.arrive(tenant) == "admitted"
        before = dict(tenant.placement)
        moved = runtime.migrate_tenant(
            tenant, exclude=tuple(set(before.values())), reason="test")
        if moved:
            assert tenant.placement != before
            assert tenant.migrations == 1
            assert not (set(tenant.placement.values())
                        & set(before.values()))
        else:
            # No feasible placement off the original nodes: unchanged.
            assert tenant.placement == before
            ledger = runtime.scheduler.ledger
            total = sum(d.cpu for d in tenant.demands.values())
            assert ledger.tenant_committed["mover"][0] == pytest.approx(total)

    def test_budget_gates_scale_out(self):
        from repro.apps import elastic_pipeline
        from repro.tenancy.runtime import TenantRuntime
        from repro.tenancy.scheduler import Scheduler
        from repro.runtime.runtime import RuntimeConfig
        from repro.tenancy.tenant import Tenant

        graph = elastic_pipeline(replicas=1, max_replicas=6)
        cluster = uniform_spec(1, ncpus=16)
        config = RuntimeConfig(cluster=cluster, placement={})
        runtime = TenantRuntime(config, Scheduler(cluster))
        tenant = Tenant(TenantSpec(
            "elastic", app=graph,
            demand=ResourceDemand(cpu=0.5, bandwidth_bps=100)))
        assert runtime.arrive(tenant) == "admitted"
        runtime.arbiter = object()  # arbitration on: budget gate active
        stage = tenant.stages[0]
        # No budget granted -> scale-out denied despite idle node.
        assert runtime.scale_out(stage) is None
        assert runtime.scheduler.ledger.denials["elastic"] == 1
        # Grant one replica's worth -> exactly one scale-out succeeds.
        runtime.set_tenant_budget(tenant, 0.5)
        name = runtime.scale_out(stage)
        assert name is not None
        assert runtime.scale_out(stage) is None
        assert runtime.scheduler.used_budget("elastic") == pytest.approx(0.5)
        # Shrinking the budget to zero retires the granted replica.
        runtime.set_tenant_budget(tenant, 0.0)
        assert runtime.scheduler.used_budget("elastic") == 0.0
        assert name not in runtime.drivers
