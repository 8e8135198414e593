"""Python calls per engine event: the machine-stable cost gate.

Host time on a shared sandbox drifts by ±20 %; the number of frames the
simulator enters per engine event does not move at all. Two small
recipes are counted with ``benchmarks/count_calls.py`` (``sys.setprofile``)
and held to a budget 5 % above what they measured when the budget was
last set: the e2e benchmark's light-fleet tenant (ARU off, the
per-syscall hot path) and one ARU-min tracker cell (the control plane
doing real work), each as the difference of two horizons so that only
the steady state counts. Deterministic, so not behind the ``perf`` marker. A
change that makes the per-syscall path dearer trips this on any machine;
one that makes it cheaper should lower the budget in the same PR.

Set-up has the same kind of gate: Python calls per admitted light tenant,
as the difference of admitting 40 and 20 of them with no engine run.

What an event leaves behind is gated the same way on the light fleet:
gc-tracked objects and bytes of trace storage per engine event, again as
the difference of two horizons. These are the deterministic companions
of the benchmark's ``peak_rss_mb``: the trace is typed columns, so an
event adds rows to arrays and no object for the collector to walk.
"""

import gc
import importlib.util
import sys
from array import array
from pathlib import Path

import pytest

from repro.cluster.spec import uniform_spec
from repro.experiment import ExperimentSpec, run_experiment
from repro.tenancy import (
    Scheduler,
    TenancySpec,
    TenantRuntime,
    TenantSpec,
    run_tenants,
    scaled_tracker_config,
)
from repro.tenancy.tenant import ResourceDemand, Tenant


def _load_counter():
    spec = importlib.util.spec_from_file_location(
        "count_calls",
        Path(__file__).resolve().parents[2] / "benchmarks" / "count_calls.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


counter = _load_counter()
count_calls = counter.count_calls


def test_the_counter_counts_frames_c_calls_and_generator_starts():
    def numbers():
        yield 1
        yield 2

    def relay():
        yield from numbers()

    def work():
        return len(list(relay()))

    counts, result = count_calls(work)
    assert result == 2
    # work, then relay and numbers entered once and resumed twice each.
    assert counts["python_calls"] == 7
    assert counts["generator_starts"] == 2
    assert counts["c_calls"] >= 2  # len, list
    by_name = {key.rsplit(".", 1)[-1]: n
               for key, n in counts["by_function"].items()}
    assert by_name == {"work": 1, "relay": 3, "numbers": 3}


def test_the_counter_snapshots_set_up_at_the_first_marker_frame():
    def prepare():
        return len([])

    def run():
        return prepare()

    def work():
        prepare(), prepare(), run(), run()

    counts, _ = count_calls(work, setup_ends=run.__code__)
    assert counts["python_calls"] == 7
    assert counts["setup_python_calls"] == 3  # work, prepare, prepare
    assert counts["setup_c_calls"] == 2
    assert sum(counts["setup_by_function"].values()) == 3


def test_compare_ranks_functions_by_change(capsys):
    def counts(**by_function):
        return {"python_calls": sum(by_function.values()), "c_calls": 5,
                "generator_starts": 1, "events": 10,
                "calls_per_event": sum(by_function.values()) / 10,
                "by_function": {f"src/m.py:{i}:{name}": n for i, (name, n)
                                in enumerate(by_function.items())}}

    counter.compare(counts(kept=50, gone=40, shrunk=30),
                    counts(shrunk=10, kept=50, new=5), top=2)
    out = capsys.readouterr().out
    assert "python_calls" in out and "-45.83 %" in out
    ranked = [line.split()[1] for line in out.splitlines()
              if line.lstrip().startswith(("+", "-"))]
    assert ranked == ["src/m.py:gone", "src/m.py:shrunk"]  # moved lines match


def light_fleet_spec(tenants: int, horizon: float) -> TenancySpec:
    """``benchmarks/e2e/workloads.py::_light_fleet``."""
    cfg = scaled_tracker_config(0.02, frame_period=0.25, cv=0.0)
    demand = ResourceDemand(cpu=0.05, mem_bytes=2**20, bandwidth_bps=1_000_000)
    return TenancySpec(
        tenants=tuple(TenantSpec(f"t{i}", app_config=cfg, demand=demand)
                      for i in range(tenants)),
        cluster=uniform_spec(32, ncpus=16, bandwidth_bps=10**9),
        seed=0, horizon=horizon)


def light_fleet(horizon: float):
    return run_tenants(light_fleet_spec(2, horizon))


def tracker_cell(horizon: float):
    return run_experiment(ExperimentSpec(
        config="config1", policy="aru-min", seed=0, horizon=horizon))


def marginal_calls_per_event(recipe, short: float, long: float) -> float:
    """Python calls per engine event of the steady state: the difference
    of two horizons, so set-up (graph building, validation, placement,
    driver assembly) and teardown cancel out; set-up has its own budget
    below."""
    recipe(0.5)  # lazy imports and first-use caches land here, uncounted
    calls, events = [], []
    for horizon in (short, long):
        counts, result = count_calls(lambda: recipe(horizon))
        calls.append(counts["python_calls"])
        events.append(result.stats["engine"]["events_processed"])
    assert events[1] - events[0] > 4_000  # a ratio over real work
    return (calls[1] - calls[0]) / (events[1] - events[0])


#: (recipe, short and long horizon in simulated s, budget). Measured
#: 27.31 and 33.40 when set (ISSUE 23: recording appends to columns, no
#: record ``__init__``; 28.71 and 34.91 before, 38.14 and 41.28 before
#: ISSUE 16).
BUDGETS = [
    pytest.param(light_fleet, 5.0, 20.0, 28.7, id="light-fleet"),
    pytest.param(tracker_cell, 10.0, 60.0, 35.1, id="tracker-aru-min"),
]


@pytest.mark.parametrize("recipe, short, long, budget", BUDGETS)
def test_python_calls_per_engine_event(recipe, short, long, budget):
    per_event = marginal_calls_per_event(recipe, short, long)
    assert per_event <= budget, (
        f"{per_event:.2f} Python calls per engine event, budget {budget}; "
        f"benchmarks/count_calls.py --compare shows which functions grew")


#: What one more engine event of the light fleet leaves behind. Measured
#: 0.000 gc-tracked objects (one stray object in 4 200 events at most)
#: and 83.1 B of trace storage when set (ISSUE 23); the recorder that
#: kept a record object per interaction measured 1.40 objects and
#: about 224 B.
TRACKED_OBJECTS_BUDGET = 0.01
TRACE_BYTES_BUDGET = 87.3


def test_what_an_engine_event_leaves_behind():
    growth = counter.growth_per_event(light_fleet, 5.0, 20.0)
    assert growth["tracked_objects_per_event"] <= TRACKED_OBJECTS_BUDGET, (
        f"{growth['tracked_objects_per_event']:.3f} gc-tracked objects "
        f"outlive each engine event, budget {TRACKED_OBJECTS_BUDGET}: "
        f"something keeps an object per interaction again")
    assert growth["trace_bytes_per_event"] <= TRACE_BYTES_BUDGET, (
        f"{growth['trace_bytes_per_event']:.1f} B of trace storage per "
        f"engine event, budget {TRACE_BYTES_BUDGET}")


def test_trace_bytes_counts_columns_and_the_id_map():
    class Storage:
        def __init__(self):
            self.ids = array("q", range(1000))
            self.names = ["n"] * 10
            self.rows = {10**6: 10**5}
            self.flag = True  # neither a column nor a map

    assert counter.trace_bytes(Storage()) == (
        sys.getsizeof(array("q", range(1000))) + sys.getsizeof(["n"] * 10)
        + sys.getsizeof({1: 1}) + sys.getsizeof(10**6) + sys.getsizeof(10**5))


def admit_light_fleet(tenants: int) -> TenantRuntime:
    """What ``run_tenants`` does before its engine runs, and no more."""
    spec = light_fleet_spec(tenants, horizon=1.0)
    config = spec.runtime_config()
    runtime = TenantRuntime(config, Scheduler(config.cluster))
    for tenant in spec.tenants:
        assert runtime.arrive(Tenant(tenant)) == "admitted"
    return runtime


#: Python calls to admit one light tenant (build and validate its graph,
#: place it, merge it, assemble its buffers and drivers). Measured 639
#: when set (ISSUE 22: the tenant is an argument of the wiring, not
#: looked up by name per thread; 764 before, 3 226 before ISSUE 18).
SETUP_BUDGET = 671


def test_python_calls_per_admitted_tenant():
    # Lazy imports and first-use caches land in the warm-up. Every
    # runtime stays referenced and older garbage goes first: destroying
    # a runtime closes its unstarted thread generators, a frame each.
    kept = [admit_light_fleet(2)]
    gc.collect()
    calls = []
    for tenants in (20, 40):
        counts, runtime = count_calls(lambda: admit_light_fleet(tenants))
        calls.append(counts["python_calls"])
        kept.append(runtime)
    per_tenant = (calls[1] - calls[0]) / 20
    assert per_tenant <= SETUP_BUDGET, (
        f"{per_tenant:.0f} Python calls per admitted tenant, budget "
        f"{SETUP_BUDGET}; benchmarks/count_calls.py --compare lists set-up "
        f"by function")
