"""The backend registry: one front door, names resolved in one place."""

import warnings

import pytest

import repro
from repro.backends import (
    BACKENDS,
    available_backends,
    register_backend,
    resolve_backend,
)
from repro.errors import ConfigError
from repro.experiment import ExperimentSpec, execute_simulated, run_experiment
from repro.metrics.trace_io import trace_to_dict


class TestRegistry:
    def test_builtins_registered(self):
        assert {"sim", "threads", "proc"} <= set(available_backends())

    def test_resolve_returns_runner(self):
        assert callable(resolve_backend("sim"))

    def test_unknown_name_did_you_mean(self):
        with pytest.raises(ConfigError, match="did you mean 'threads'"):
            resolve_backend("thread")

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigError, match="proc, sim, threads"):
            resolve_backend("bogus")

    def test_non_string_rejected(self):
        with pytest.raises(ConfigError, match="registered name"):
            resolve_backend(execute_simulated)  # callables are not names

    def test_register_and_resolve_custom(self):
        sentinel = object()
        register_backend("unit-test-backend", lambda spec: sentinel,
                         help="test only")
        assert resolve_backend("unit-test-backend")(None) is sentinel
        assert "unit-test-backend" in BACKENDS.help_text()

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            register_backend("", lambda spec: None)

    def test_top_level_exports(self):
        assert repro.available_backends is available_backends
        assert repro.resolve_backend is resolve_backend
        assert repro.register_backend is register_backend


class TestDispatch:
    def test_run_experiment_goes_through_registry(self):
        seen = {}

        def fake(spec):
            seen["spec"] = spec
            return "ran-on-fake"

        register_backend("fake", fake)
        spec = ExperimentSpec(backend="fake", horizon=1.0)
        assert run_experiment(spec) == "ran-on-fake"
        assert seen["spec"] is spec

    def test_unknown_backend_on_spec_raises_early(self):
        with pytest.raises(ConfigError, match="did you mean"):
            run_experiment(ExperimentSpec(backend="simm", horizon=1.0))

    def test_sim_via_registry_fingerprint_identical(self):
        """Routing through the registry must not perturb the DES."""
        from repro.runtime.connection import reset_conn_ids
        from repro.runtime.item import reset_item_ids

        spec = ExperimentSpec(policy="aru-min", seed=3, horizon=8.0)
        reset_item_ids()  # both id counters are process-global
        reset_conn_ids()
        direct = execute_simulated(spec)
        reset_item_ids()
        reset_conn_ids()
        routed = run_experiment(spec)  # backend defaults to "sim"
        assert trace_to_dict(routed.trace) == trace_to_dict(direct.trace)
        assert routed.stats == direct.stats

    def test_threads_registry_entry_is_the_threaded_executor(self):
        # Wall-clock runs are not bit-reproducible, so fingerprint
        # identity is checked structurally: the registry dispatches to
        # the same runner the executor module exports.
        from repro.rt_threads.executor import run_threaded_experiment

        runner = resolve_backend("threads")
        assert runner.__module__ == "repro.backends"
        import inspect

        assert "run_threaded_experiment" in inspect.getsource(runner)
        assert callable(run_threaded_experiment)


class TestDeprecations:
    def test_executor_submodule_path_stays_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.rt_threads.executor import ThreadedRuntime  # noqa: F401
