"""Guards on the public API surface and documentation hygiene."""

import importlib
import pkgutil

import pytest

import repro

PUBLIC_SUBPACKAGES = (
    "repro.sim",
    "repro.vt",
    "repro.cluster",
    "repro.runtime",
    "repro.gc",
    "repro.aru",
    "repro.control",
    "repro.faults",
    "repro.metrics",
    "repro.apps",
    "repro.rt_threads",
    "repro.bench",
    "repro.obs",
    "repro.tenancy",
    "repro.dist",
)

#: The lazily re-exported top-level names. A frozen snapshot: adding a
#: name here is a deliberate API decision; removing one is a breaking
#: change and must fail this test first.
TOP_LEVEL_API = {
    "Engine", "RngRegistry", "Timestamp",
    "ClusterSpec", "NodeSpec",
    "Runtime", "RuntimeConfig", "TaskGraph",
    "Get", "Put", "Compute", "PeriodicitySync",
    "AruConfig", "MIN_OPERATOR", "MAX_OPERATOR",
    "RatePolicy", "SummaryStpPolicy", "PidPolicy", "NullPolicy",
    "ThreadController", "register_policy", "resolve_policy",
    "list_policies",
    "ScaleConfig", "ScalePolicy", "ErlangScalePolicy", "NullScalePolicy",
    "register_scale_policy", "resolve_scale_policy", "list_scale_policies",
    "FaultSpec", "FaultSchedule", "FaultInjector",
    "TraceRecorder", "PostmortemAnalyzer",
    "build_tracker", "TrackerConfig",
    "run_experiment", "ExperimentSpec", "RunResult",
    "register_backend", "available_backends", "resolve_backend",
    "TenancySpec", "TenantSpec", "TenancyResult", "ResourceDemand",
    "Scheduler", "run_tenants", "register_placement",
    "ArbiterConfig", "register_arbiter", "available_arbiters",
    "TelemetryHub", "TelemetryConfig", "NULL_HUB",
    "__version__",
}


def test_version():
    assert repro.__version__ == "1.0.0"


def test_lazy_exports_resolve():
    for name in repro.__all__:
        if name != "__version__":
            assert getattr(repro, name) is not None


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.definitely_not_a_thing


def test_dir_lists_all():
    assert set(repro.__all__) <= set(dir(repro))


def test_top_level_api_snapshot():
    assert set(repro.__all__) == TOP_LEVEL_API


def test_rt_threads_exports_only_the_channel():
    # The package-level ``ThreadedRuntime`` deprecation path is gone: the
    # executor is imported from ``repro.rt_threads.executor`` or, better,
    # reached through the backend registry.
    import repro.rt_threads as pkg

    assert pkg.__all__ == ["ThreadChannel"]
    assert not hasattr(pkg, "ThreadedRuntime")


def test_facade_and_obs_reexports_are_the_real_objects():
    from repro.experiment import ExperimentSpec, RunResult, run_experiment
    from repro.obs import NULL_HUB, TelemetryConfig, TelemetryHub

    assert repro.run_experiment is run_experiment
    assert repro.ExperimentSpec is ExperimentSpec
    assert repro.RunResult is RunResult
    assert repro.TelemetryHub is TelemetryHub
    assert repro.TelemetryConfig is TelemetryConfig
    assert repro.NULL_HUB is NULL_HUB


@pytest.mark.parametrize("package", PUBLIC_SUBPACKAGES)
def test_subpackage_has_docstring_and_all(package):
    mod = importlib.import_module(package)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 20
    assert getattr(mod, "__all__", None), f"{package} must declare __all__"


@pytest.mark.parametrize("package", PUBLIC_SUBPACKAGES)
def test_all_entries_exist(package):
    mod = importlib.import_module(package)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} missing"


def test_every_module_has_docstring():
    undocumented = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        mod = importlib.import_module(info.name)
        if not (mod.__doc__ and mod.__doc__.strip()):
            undocumented.append(info.name)
    assert not undocumented, f"modules without docstrings: {undocumented}"


def test_key_classes_documented():
    from repro.aru import AruConfig, StpMeter
    from repro.metrics import PostmortemAnalyzer, TraceRecorder
    from repro.runtime import Channel, Runtime, TaskGraph

    for cls in (AruConfig, StpMeter, TraceRecorder, PostmortemAnalyzer,
                Channel, Runtime, TaskGraph):
        assert cls.__doc__ and len(cls.__doc__.strip()) > 20


def test_importing_repro_does_not_import_networkx():
    """The task graph is plain dicts (ISSUE 18): nothing a workload boots
    through may pull the graph library back in."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    code = ("import sys; "
            "import repro.bench, repro.tenancy, repro.dist.launcher; "
            "sys.exit('networkx' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
