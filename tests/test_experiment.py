"""Tests for the run_experiment facade: resolution, delegation, results."""

import pytest

from repro.aru.config import aru_disabled, aru_min
from repro.bench.identity import metrics_fingerprint
from repro.cluster.spec import config1_spec, config2_spec
from repro.errors import ConfigError
from repro.experiment import ExperimentSpec, RunResult, run_experiment
from repro.obs import NULL_HUB

HORIZON = 6.0


class TestSpecResolution:
    def test_default_app_is_tracker(self):
        graph = ExperimentSpec().resolve_graph()
        assert "digitizer" in graph.threads()

    def test_graph_passthrough(self):
        from repro.apps.tracker import build_tracker

        graph = build_tracker()
        assert ExperimentSpec(app=graph).resolve_graph() is graph

    def test_stampede_app_uses_its_graph(self):
        from repro.runtime.api import StampedeApp

        def src(api):
            yield  # pragma: no cover - never driven here

        app = StampedeApp("mini")
        app.create_thread("src", src).alloc_channel("C1")
        app.attach_output("src", "C1")
        assert ExperimentSpec(app=app).resolve_graph() is app.graph

    def test_app_config_with_graph_rejected(self):
        from repro.apps.tracker import TrackerConfig, build_tracker

        spec = ExperimentSpec(app=build_tracker(), app_config=TrackerConfig())
        with pytest.raises(ConfigError, match="app_config"):
            spec.resolve_graph()

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigError, match="unknown app"):
            ExperimentSpec(app="juggler").resolve_graph()

    def test_default_cluster_is_config1(self):
        cluster, placement = ExperimentSpec().resolve_cluster_and_placement()
        assert cluster == config1_spec()
        assert placement == {}

    def test_config2_tracker_gets_paper_placement(self):
        from repro.apps.tracker import tracker_placement

        cluster, placement = ExperimentSpec(
            config="config2").resolve_cluster_and_placement()
        assert cluster == config2_spec()
        assert placement == tracker_placement()

    def test_explicit_placement_wins(self):
        _, placement = ExperimentSpec(
            config="config2",
            placement={"digitizer": "node3"},
        ).resolve_cluster_and_placement()
        assert placement == {"digitizer": "node3"}

    def test_cluster_spec_passthrough(self):
        spec = config2_spec()
        cluster, _ = ExperimentSpec(
            config=spec).resolve_cluster_and_placement()
        assert cluster is spec

    def test_unknown_config_rejected(self):
        with pytest.raises(ConfigError, match="unknown cluster 'config9'"):
            ExperimentSpec(config="config9").resolve_cluster_and_placement()

    def test_policy_none_is_disabled(self):
        assert ExperimentSpec().resolve_policy() == aru_disabled()

    def test_policy_by_name(self):
        assert ExperimentSpec(policy="aru-min").resolve_policy() == aru_min()

    def test_policy_passthrough(self):
        cfg = aru_min()
        assert ExperimentSpec(policy=cfg).resolve_policy() is cfg

    def test_bad_retry_rejected(self):
        with pytest.raises(ConfigError, match="retry"):
            ExperimentSpec(retry="three times").runtime_config()

    def test_with_returns_new_spec(self):
        spec = ExperimentSpec()
        other = spec.with_(seed=7)
        assert other.seed == 7 and spec.seed == 0


class TestRunExperiment:
    def test_returns_run_result(self):
        result = run_experiment(ExperimentSpec(horizon=HORIZON))
        assert isinstance(result, RunResult)
        assert result.trace.duration == pytest.approx(HORIZON)
        assert result.fault_log is None
        assert result.telemetry is NULL_HUB
        assert not result.telemetry_enabled
        assert "engine" in result.stats
        assert result.runtime is not None

    def test_kwargs_shorthand(self):
        result = run_experiment(horizon=HORIZON, policy="aru-min")
        assert result.spec.policy == "aru-min"

    def test_spec_plus_overrides(self):
        result = run_experiment(ExperimentSpec(horizon=60.0),
                                horizon=HORIZON)
        assert result.spec.horizon == HORIZON

    def test_dict_spec_via_specfile_grammar(self):
        result = run_experiment({
            "app": "tracker",
            "config": "config1",
            "policy": "aru-min",
            "horizon": HORIZON,
            "telemetry": True,
        })
        assert result.telemetry_enabled
        assert result.trace.duration == pytest.approx(HORIZON)

    def test_dict_spec_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            run_experiment({"app": "tracker", "horizont": 5.0})

    def test_garbage_spec_rejected(self):
        with pytest.raises(ConfigError, match="ExperimentSpec"):
            run_experiment(42)

    def test_faults_install_injector(self):
        from repro.faults import FaultSpec

        result = run_experiment(ExperimentSpec(
            horizon=HORIZON,
            faults=(FaultSpec(kind="thread_stall", target="histogram",
                              at=2.0, duration=1.0),),
        ))
        assert result.fault_log is not None
        assert len(result.fault_log.records) == 1

    def test_dict_spec_faults_from_dicts(self):
        result = run_experiment({
            "app": "tracker",
            "horizon": HORIZON,
            "faults": [{"kind": "thread_stall", "target": "histogram",
                        "at": 2.0, "duration": 1.0}],
        })
        assert result.fault_log is not None


class TestDelegationEquivalence:
    """The three legacy entry styles must agree bit for bit."""

    def test_sweep_cell_matches_direct_facade(self):
        from repro.bench.experiments import metrics_from_trace
        from repro.bench.runner import CellSpec, run_cell

        cell = run_cell(CellSpec(policy=aru_min(), horizon=HORIZON))
        direct = run_experiment(ExperimentSpec(
            policy=aru_min(), horizon=HORIZON))
        direct_metrics = metrics_from_trace(
            "config1", aru_min().name, 0, HORIZON, direct.trace)
        assert cell.metrics.throughput == direct_metrics.throughput
        assert cell.metrics.mem_mean == direct_metrics.mem_mean
        assert cell.metrics.latency_mean == direct_metrics.latency_mean

    def test_specfile_run_matches_facade(self):
        d = {"app": "tracker", "policy": "aru-min", "horizon": HORIZON}
        trace_a = run_experiment(ExperimentSpec(
            app="tracker", policy="aru-min", horizon=HORIZON)).trace
        trace_b = run_experiment(dict(d)).trace
        assert len(trace_a.items) == len(trace_b.items)

        # item ids are process-global, so compare the id-free shape
        def shape(trace):
            return [(it.thread, it.t_start, it.t_end, it.compute, it.blocked)
                    for it in trace.sink_iterations()]

        assert shape(trace_a) == shape(trace_b)

    def test_facade_determinism_across_calls(self):
        from repro.bench.runner import CellSpec, run_cell

        a = run_cell(CellSpec(horizon=HORIZON, seed=3))
        b = run_cell(CellSpec(horizon=HORIZON, seed=3))
        assert metrics_fingerprint(a) == metrics_fingerprint(b)
