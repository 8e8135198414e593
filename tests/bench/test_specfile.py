"""Tests for declarative experiment specs: an object of ExperimentSpec's
fields, read by ``ExperimentSpec.from_dict``."""

import pytest

from repro.control import resolve_policy
from repro.errors import ConfigError
from repro.experiment import ExperimentSpec, run_experiment


class TestAruFromDict:
    def test_none_disabled(self):
        assert resolve_policy(None).enabled is False

    def test_preset_names(self):
        assert resolve_policy("aru-min").default_channel_op == "min"
        assert resolve_policy("aru-max").thread_op == "max"
        assert resolve_policy("no-aru").enabled is False

    def test_preset_with_overrides(self):
        cfg = resolve_policy({"preset": "aru-max", "summary_filter": "ewma:0.2",
                              "headroom": 1.1})
        assert cfg.default_channel_op == "max"
        assert cfg.summary_filter == "ewma:0.2"
        assert cfg.headroom == 1.1

    def test_default_preset_is_min(self):
        assert resolve_policy({}).default_channel_op == "min"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            resolve_policy("warp")

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentSpec.from_dict(
                {"policy": {"preset": "aru-min", "agressiveness": 9}})

    def test_bad_type(self):
        with pytest.raises(ConfigError):
            resolve_policy(42)


class TestExperimentFromDict:
    def test_defaults(self):
        spec = ExperimentSpec.from_dict({})
        assert spec == ExperimentSpec()
        assert spec.resolve_graph().name == "people-tracker"
        assert spec.runtime_config().gc == "dgc"
        assert spec.horizon == 120.0

    def test_tracker_overrides(self):
        spec = ExperimentSpec.from_dict({
            "config": "config2",
            "policy": "aru-max",
            "seed": 7,
            "horizon": 30,
            "app_config": {"frame_period": 0.02},
        })
        cfg = spec.runtime_config()
        assert len(cfg.cluster.nodes) == 5
        assert cfg.aru.name == "aru-max"
        assert cfg.seed == 7
        assert spec.horizon == 30.0 and isinstance(spec.horizon, float)
        assert spec.app_config.frame_period == 0.02
        # config2 tracker auto-fills the paper placement
        assert cfg.placement["gui"] == "node4"

    def test_other_apps(self):
        spec = ExperimentSpec.from_dict({"app": "gesture"})
        assert spec.resolve_graph().name == "gesture"
        spec = ExperimentSpec.from_dict(
            {"app": "stereo", "app_config": {"frame_period": 0.1}})
        assert spec.resolve_graph().name == "stereo"
        assert spec.app_config.frame_period == 0.1

    def test_loads(self):
        spec = ExperimentSpec.from_dict({
            "loads": [{"node": "node0", "start": 1, "stop": 2, "threads": 2}],
        })
        assert len(spec.loads) == 1
        assert spec.loads[0].threads == 2
        with pytest.raises(ConfigError, match=r"loads\[0\]: missing 'stop'"):
            ExperimentSpec.from_dict(
                {"loads": [{"node": "node0", "start": 1}]})

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentSpec.from_dict({"workload": "tracker"})
        # the grammar's keys are the dataclass's fields
        with pytest.raises(ConfigError, match=r"\['aru'\]"):
            ExperimentSpec.from_dict({"aru": "aru-max"})

    def test_unknown_app(self):
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict({"app": "chess"}).resolve_graph()
        with pytest.raises(ConfigError, match="unknown app"):
            ExperimentSpec.from_dict({"app": "chess", "app_config": {}})

    def test_unknown_config(self):
        with pytest.raises(ConfigError, match="unknown cluster 'config9'"):
            ExperimentSpec.from_dict({"config": "config9"}).runtime_config()

    def test_unknown_tracker_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentSpec.from_dict({"app_config": {"fps": 30}})

    def test_not_a_dict(self):
        with pytest.raises(ConfigError, match="must be an object"):
            ExperimentSpec.from_dict("tracker")

    def test_wrong_scalar_type_names_its_key(self):
        with pytest.raises(ConfigError, match="'horizon' in experiment spec"):
            ExperimentSpec.from_dict({"horizon": "long"})
        with pytest.raises(ConfigError, match="'seed' .* must be int"):
            ExperimentSpec.from_dict({"seed": True})

    def test_cluster_object(self):
        spec = ExperimentSpec.from_dict(
            {"config": {"kind": "config2", "sched_noise_cv": 0.3}})
        cluster, placement = spec.resolve_cluster_and_placement()
        assert [n.sched_noise_cv for n in cluster.nodes] == [0.3] * 5
        assert placement["gui"] == "node4"


class TestRunExperiment:
    def test_end_to_end(self):
        recorder = run_experiment({
            "app": "tracker",
            "policy": "aru-max",
            "horizon": 10,
            "app_config": {"frame_period": 0.02},
        }).trace
        assert recorder.duration == 10.0
        assert recorder.sink_iterations()

    def test_cli_round_trip(self, tmp_path, capsys):
        import json

        from repro.cli import main

        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps({
            "app": "tracker", "policy": "aru-min", "horizon": 10, "seed": 1,
        }))
        trace_path = tmp_path / "out.json"
        rc = main(["run-config", str(spec_path), "--save-trace",
                   str(trace_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wasted_memory" in out
        assert trace_path.exists()
