"""Guards on the public API surface and documentation hygiene."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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
    "SummaryStpPolicy", "PidPolicy",
    "ThreadController", "register_policy", "resolve_policy",
    "list_policies",
    "ScaleConfig", "ErlangScalePolicy",
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


def _in_fresh_interpreter(code: str) -> int:
    """Exit status of ``code`` run by a new interpreter on this ``src/``."""
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def test_importing_repro_does_not_import_networkx():
    """The task graph is plain dicts: nothing a workload boots
    through may pull the graph library back in."""
    code = ("import sys; "
            "import repro.bench, repro.tenancy, repro.dist.launcher; "
            "sys.exit('networkx' in sys.modules)")
    assert _in_fresh_interpreter(code) == 0


_LIGHT_FLEET = """
import sys
import repro.rt_threads.executor, repro.runtime.runtime, repro.tenancy
from repro.cluster.spec import uniform_spec
from repro.tenancy import TenancySpec, TenantSpec, run_tenants, scaled_tracker_config
from repro.tenancy.tenant import ResourceDemand

cfg = scaled_tracker_config(0.02, frame_period=0.25, cv={cv})
demand = ResourceDemand(cpu=0.05, mem_bytes=2**20, bandwidth_bps=1_000_000)
result = run_tenants(TenancySpec(
    tenants=tuple(TenantSpec(f"t{{i}}", app_config=cfg, demand=demand)
                  for i in range(10)),
    cluster=uniform_spec(32, ncpus=16, bandwidth_bps=10**9), horizon=3.0))
records = result.records.values()
assert all(r.deliveries and r.latency_p95 >= r.latency_p50 > 0 for r in records)
sys.exit(10 + ("numpy" in sys.modules))
"""


@pytest.mark.parametrize("cv, loads_numpy", [(0.0, False), (0.3, True)])
def test_a_run_that_draws_nothing_never_imports_numpy(cv, loads_numpy):
    """A ``cv=0`` light fleet runs and analyses its tenants (p50/p95 per
    tenant) without numpy; a fleet that draws imports it at its first draw."""
    assert _in_fresh_interpreter(_LIGHT_FLEET.format(cv=cv)) == 10 + loads_numpy


_THREADS_SET_UP = """
import sys
from repro.rt_threads.executor import ThreadedRuntime
from repro.runtime import Get, Put, TaskGraph

def source(ctx):
    yield Put("c", ts=0, size=1)

def sink(ctx):
    yield Get("c")

graph = TaskGraph("g").add_thread("src", source).add_channel("c")
graph.add_thread("s", sink, sink=True).connect("src", "c").connect("c", "s")
assert "numpy" not in sys.modules
ThreadedRuntime(graph)
sys.exit(10 + ("numpy" in sys.modules))
"""

_PROC_FORKS = """
import sys
forks = []
sys.addaudithook(
    lambda event, _: event == "os.fork" and forks.append("numpy" in sys.modules))
from repro.experiment import ExperimentSpec, run_experiment

run_experiment(ExperimentSpec(config="config2", policy="aru-min", horizon=0.5,
                              backend="proc",
                              backend_options={"compute_mode": "noop"}))
sys.exit(10 + (len(forks) == 5 and all(forks)))
"""


@pytest.mark.parametrize("code", [
    pytest.param(_THREADS_SET_UP, id="threads-init"),
    pytest.param(_PROC_FORKS, id="proc-fork", marks=pytest.mark.slow),
])
def test_live_shells_import_numpy_in_set_up(code):
    """A live draw must not pay numpy's import inside the timed stream: a
    threaded runtime loads it while it is built, and the proc launcher
    before it forks, so its workers share the launcher's copy."""
    assert _in_fresh_interpreter(code) == 11


def test_metrics_exports_resolve_and_gantt_stays_the_function():
    # Fresh, so nothing has resolved a name before the submodule import,
    # which binds ``repro.metrics.gantt`` to the module unless the package
    # bound the function eagerly.
    code = """
import sys
import repro.metrics.gantt
import repro.metrics as m
assert callable(m.gantt) and callable(m.activity_buckets)
assert "numpy" not in sys.modules
assert all(getattr(m, name) is not None for name in m.__all__)
sys.exit(10 + (set(m.__all__) <= set(dir(m))))
"""
    assert _in_fresh_interpreter(code) == 11


#: The simulated run's path (``src/repro``-relative): no module-level
#: ``import numpy`` here. Analysis modules may import it at module top,
#: since ``repro.metrics`` and ``repro.bench`` export them lazily.
RUN_PATH = ("sim", "runtime", "control", "aru", "gc", "tenancy",
            "metrics/recorder.py", "metrics/performance.py",
            "metrics/gantt.py", "apps/vision.py")


def _import_time_modules(stmts):
    """Modules imported when ``stmts`` run at module level: function
    bodies run later and an ``if TYPE_CHECKING:`` body never does."""
    for node in stmts:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif (isinstance(node, ast.If)
              and ast.unparse(node.test).endswith("TYPE_CHECKING")):
            yield from _import_time_modules(node.orelse)
        else:  # class, if, try (and its handlers), with, for, while
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _import_time_modules(getattr(node, field, ()))


def _imports_numpy_at_module_level(source: str) -> bool:
    return any(name == "numpy" or name.startswith("numpy.")
               for name in _import_time_modules(ast.parse(source).body))


def test_the_numpy_guard_sees_what_runs_at_import():
    assert _imports_numpy_at_module_level("import numpy as np")
    assert _imports_numpy_at_module_level(
        "try:\n    pass\nexcept ImportError:\n    from numpy import random")
    assert _imports_numpy_at_module_level("class A:\n    import numpy.random")
    assert not _imports_numpy_at_module_level(
        "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy")
    assert not _imports_numpy_at_module_level("def f():\n    import numpy")


def test_the_run_path_imports_numpy_where_it_uses_it():
    root = Path(repro.__file__).resolve().parent
    files = []
    for entry in RUN_PATH:
        path = root / entry
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    assert len(files) > len(RUN_PATH)
    offenders = [str(f.relative_to(root)) for f in files
                 if _imports_numpy_at_module_level(f.read_text())]
    assert not offenders, f"module-level numpy import in {offenders}"
