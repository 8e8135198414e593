"""The declarative tenancy-spec grammar (JSON -> TenancySpec)."""

import pytest

from repro.cluster.spec import ClusterSpec, cluster_spec
from repro.errors import ConfigError
from repro.schema import build
from repro.tenancy import ResourceDemand, TenancySpec


class TestDemandGrammar:
    def test_unit_conversions(self):
        demand = build(ResourceDemand,
                       {"cpu": 0.5, "mem_mb": 64, "bandwidth_mbps": 10}, "d")
        assert demand.cpu == 0.5
        assert demand.mem_bytes == 64 * 2**20
        assert demand.bandwidth_bps == 10_000_000

    def test_raw_units(self):
        demand = build(ResourceDemand,
                       {"mem_bytes": 123, "bandwidth_bps": 456}, "d")
        assert (demand.mem_bytes, demand.bandwidth_bps) == (123, 456)

    def test_conflicting_units_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            build(ResourceDemand, {"mem_mb": 1, "mem_bytes": 1}, "d")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            build(ResourceDemand, {"gpus": 2}, "d")

    def test_passthrough(self):
        demand = ResourceDemand()
        assert build(ResourceDemand, demand, "d") is demand


class TestClusterGrammar:
    def test_uniform(self):
        cluster = cluster_spec({"n_nodes": 3, "ncpus": 2})
        assert len(cluster.nodes) == 3
        assert cluster.nodes[0].ncpus == 2
        assert len(cluster_spec({"kind": "uniform", "mem_mb": 64}).nodes) == 4

    def test_heterogeneous(self):
        cluster = cluster_spec(
            {"kind": "heterogeneous", "n_big": 1, "n_small": 2})
        names = [n.name for n in cluster.nodes]
        assert names == ["big0", "small0", "small1"]

    def test_int_and_none(self):
        assert len(cluster_spec(2).nodes) == 2
        assert len(TenancySpec().resolve_cluster().nodes) == 4
        assert cluster_spec("config2") == cluster_spec({"kind": "config2"})

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key.*'uniform'"):
            cluster_spec({"n_big": 2})
        with pytest.raises(ConfigError, match="unknown key"):
            cluster_spec({"kind": "heterogeneous", "ncpus": 4})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown cluster 'mesh'"):
            cluster_spec({"kind": "mesh"})


class TestTenancyGrammar:
    def test_full_round_trip(self):
        spec = TenancySpec.from_dict({
            "cluster": {"n_nodes": 8, "ncpus": 16},
            "placement": "round-robin",
            "admission": "reject",
            "seed": 3,
            "horizon": 20.0,
            "tenants": [
                {"name": "cam", "count": 3,
                 "demand": {"cpu": 0.5, "mem_mb": 64},
                 "app_config": {"frame_period": 0.1}},
                {"name": "vip", "priority": 2, "weight": 2.0,
                 "arrival": 5.0, "policy": "aru-max"},
            ],
        })
        assert isinstance(spec, TenancySpec)
        assert isinstance(spec.resolve_cluster(), ClusterSpec)
        names = [t.name for t in spec.tenants]
        assert names == ["cam-0", "cam-1", "cam-2", "vip"]
        assert spec.tenants[0].app_config.frame_period == 0.1
        assert spec.tenants[0].demand.mem_bytes == 64 * 2**20
        vip = spec.tenants[-1]
        assert vip.priority == 2 and vip.weight == 2.0
        assert vip.policy.enabled
        assert spec.placement == "round-robin"
        assert spec.admission == "reject"

    def test_count_expansion_derives_distinct_names(self):
        spec = TenancySpec.from_dict({
            "tenants": [{"name": "t", "count": 2}]})
        a, b = spec.tenants
        assert (a.name, b.name) == ("t-0", "t-1")
        assert a.prefix != b.prefix

    def test_thread_demand_overrides(self):
        spec = TenancySpec.from_dict({
            "tenants": [{"name": "a",
                         "thread_demands": {"gui": {"cpu": 2.0}}}]})
        assert spec.tenants[0].thread_demands["gui"].cpu == 2.0
        with pytest.raises(ConfigError, match=r"thread_demands\['gui'\]"):
            TenancySpec.from_dict({
                "tenants": [{"name": "a",
                             "thread_demands": {"gui": {"gpus": 1}}}]})

    def test_faults_parse(self):
        spec = TenancySpec.from_dict({
            "tenants": [{"name": "a"}],
            "faults": [{"kind": "node_crash", "at": 3.0, "node": "node0"}],
        })
        assert spec.faults[0].kind == "node_crash"

    def test_unknown_keys_fail_loudly(self):
        with pytest.raises(ConfigError, match="unknown key"):
            TenancySpec.from_dict({"tenants": [{"name": "a"}], "xyz": 1})
        with pytest.raises(ConfigError, match=r"unknown key.*tenants\[0\]"):
            TenancySpec.from_dict({"tenants": [{"name": "a", "cpu": 1}]})

    def test_app_config_mismatch_rejected(self):
        # the app config is read as the named app's config class
        with pytest.raises(ConfigError, match="app is 'gesture'"):
            TenancySpec.from_dict({
                "tenants": [{"name": "a", "app": "gesture",
                             "app_config": {"channel_capacity": 4}}]})

    def test_missing_tenants_rejected(self):
        with pytest.raises(ConfigError, match="tenants"):
            TenancySpec.from_dict({})
        with pytest.raises(ConfigError, match=r"tenants\[0\]: missing 'name'"):
            TenancySpec.from_dict({"tenants": [{"count": 2}]})

    def test_blank_namespace_cannot_expand(self):
        with pytest.raises(ConfigError, match="blank namespace"):
            TenancySpec.from_dict({
                "tenants": [{"name": "a", "count": 2, "namespace": ""}]})
