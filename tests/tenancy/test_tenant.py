"""TenantSpec validation, seed derivation, and fairness math."""

import math

import pytest

from repro.errors import ConfigError
from repro.tenancy import (
    ResourceDemand,
    TenantSpec,
    fairness_report,
    jain_index,
    weighted_jain_index,
)
from repro.tenancy.tenant import Tenant


class TestResourceDemand:
    def test_vector(self):
        d = ResourceDemand(cpu=1.5, mem_bytes=100, bandwidth_bps=10)
        assert d.as_vector() == (1.5, 100.0, 10.0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            ResourceDemand(cpu=-1)


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ConfigError, match="non-empty"):
            TenantSpec(name="")
        with pytest.raises(ConfigError, match="'/'"):
            TenantSpec(name="a/b")
        with pytest.raises(ConfigError, match="weight"):
            TenantSpec(name="a", weight=0)
        with pytest.raises(ConfigError, match="arrival"):
            TenantSpec(name="a", arrival=-1)
        with pytest.raises(ConfigError, match="departure"):
            TenantSpec(name="a", arrival=5.0, departure=5.0)
        with pytest.raises(ConfigError, match="namespace"):
            TenantSpec(name="a", namespace="x")

    def test_prefix(self):
        assert TenantSpec(name="a").prefix == "a/"
        assert TenantSpec(name="a", namespace="").prefix == ""
        assert TenantSpec(name="a", namespace="x/").prefix == "x/"

    def test_derive_seed_stable_and_name_dependent(self):
        a = TenantSpec(name="a")
        assert a.derive_seed(0) == a.derive_seed(0)
        assert a.derive_seed(0) != a.derive_seed(1)
        assert a.derive_seed(0) != TenantSpec(name="b").derive_seed(0)
        assert TenantSpec(name="a", seed=7).derive_seed(0) == 7

    def test_demand_override(self):
        spec = TenantSpec(
            name="a",
            demand=ResourceDemand(cpu=0.5),
            thread_demands={"gui": ResourceDemand(cpu=2.0)},
        )
        tenant = Tenant(spec)
        assert tenant.demand_for("gui").cpu == 2.0
        assert tenant.demand_for("digitizer").cpu == 0.5

    def test_build_fills_demands_and_neighbors(self):
        tenant = Tenant(TenantSpec(name="a"))
        tenant.build(root_seed=0)
        assert set(tenant.demands) == {
            "digitizer", "change_detection", "histogram",
            "target_detect1", "target_detect2", "gui",
        }
        neighbors = tenant.neighbors()
        assert "change_detection" in neighbors["digitizer"]
        assert "gui" in neighbors["target_detect1"]
        assert "gui" not in neighbors["digitizer"]

    def test_local_name(self):
        tenant = Tenant(TenantSpec(name="a"))
        assert tenant.local_name("a/gui") == "gui"
        assert tenant.local_name("other") == "other"

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigError, match="unknown app"):
            TenantSpec(name="a", app="nope").resolve_graph()


class TestJain:
    def test_equal_allocations_score_one(self):
        assert jain_index([3, 3, 3]) == pytest.approx(1.0)

    def test_single_hog_scores_one_over_n(self):
        assert jain_index([9, 0, 0]) == pytest.approx(1 / 3)

    def test_empty_is_nan_and_zero_is_fair(self):
        assert math.isnan(jain_index([]))
        assert jain_index([0, 0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            jain_index([1, -1])

    def test_weighted_normalizes(self):
        # a 2x-weight tenant earning 2x goodput is perfectly fair
        assert weighted_jain_index([2.0, 1.0], [2.0, 1.0]) == pytest.approx(1.0)
        assert weighted_jain_index([1.0, 1.0], [2.0, 1.0]) < 1.0

    def test_weighted_validation(self):
        with pytest.raises(ConfigError, match="weights"):
            weighted_jain_index([1.0], [1.0, 2.0])
        with pytest.raises(ConfigError, match="positive"):
            weighted_jain_index([1.0], [0.0])

    def test_report(self):
        report = fairness_report({"a": 2.0, "b": 2.0}, {"a": 1.0, "b": 1.0})
        assert report.jain == pytest.approx(1.0)
        assert report.shares == {"a": 0.5, "b": 0.5}
        assert "jain=1.000" in report.format()


def test_tenants_stamped_from_one_graph_count_independently():
    """Task bodies keep counters in their thread's ``params`` (stereo's
    ``paired``): two tenants handed the *same* graph object must each end
    the run with their own count, not with one shared total."""
    from repro.apps.stereo import build_stereo
    from repro.tenancy import TenancySpec, run_tenants

    graph = build_stereo()
    result = run_tenants(TenancySpec(
        tenants=(TenantSpec(name="a", app=graph),
                 TenantSpec(name="b", app=graph, arrival=1.5)),
        cluster=2, seed=0, horizon=3.0))
    shared = result.runtime.graph
    for tenant in ("a", "b"):
        paired = shared.attrs(f"{tenant}/stereo")["params"]["paired"]
        puts = result.stats["buffers"][f"{tenant}/C_depth"]["puts"]
        assert puts >= 2
        # the count follows the Put, so the horizon may fall between them
        assert puts - 1 <= paired <= puts
    assert "paired" not in graph.attrs("stereo")["params"]
