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
as the difference of admitting 40 and 20 of them with no engine run, and
the bytes of heap that tenant holds once admitted, the same difference.
So has the end of a run: the bytes of heap one more light tenant holds
when ``Runtime.run`` returns, the difference of running 40 and 20.

What an event leaves behind is gated the same way on the light fleet:
gc-tracked objects and bytes of trace storage per engine event, and the
bytes the post-run analysis allocates per event, again as the difference
of two horizons. These are the deterministic companions of the
benchmark's ``peak_rss_mb``: the trace is typed columns addressed by
row, so an event adds rows to arrays and no object for the collector to
walk, and the latency analysis reads each item's anchor folded in at its
allocation and adds typed arrays of samples, no object per item.
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
    TenancySpec,
    TenantRuntime,
    TenantSpec,
    run_tenants,
    scaled_tracker_config,
)
from repro.tenancy.tenant import RUNNING, ResourceDemand


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


def light_fleet_with_rows(horizon: float):
    return run_tenants(light_fleet_spec(2, horizon).with_(trace_rows=True))


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
#: 26.43 and 31.48 when set (a blocked get is a record its buffer
#: re-tests, no closure through a wait queue; connections compare by
#: identity: 27.31 and 32.10 before; a skip calls no telemetry handle:
#: 27.31 and 32.14 before that; a thread's policy holds its backwardSTP vector and
#: plans its own sleep: 27.31 and 33.41 before that; recording appends
#: to columns, no record ``__init__``: 28.71 and 34.91 before that,
#: 38.14 and 41.28 before DGC and the controller went event-driven).
BUDGETS = [
    pytest.param(light_fleet, 5.0, 20.0, 27.8, id="light-fleet"),
    pytest.param(tracker_cell, 10.0, 60.0, 33.1, id="tracker-aru-min"),
]


@pytest.mark.parametrize("recipe, short, long, budget", BUDGETS)
def test_python_calls_per_engine_event(recipe, short, long, budget):
    per_event = marginal_calls_per_event(recipe, short, long)
    assert per_event <= budget, (
        f"{per_event:.2f} Python calls per engine event, budget {budget}; "
        f"benchmarks/count_calls.py --compare shows which functions grew")


#: What one more engine event of the light fleet leaves behind. Measured
#: 0.000 gc-tracked objects (one stray object in 4 200 events at most),
#: 5.28 B of trace storage and a 1.40 B post-run analysis peak when set
#: (a fleet keeps 17 B per item — allocation time, freed flag and the
#: latency anchor folded in at allocation — and the sink table; the
#: analysis allocates typed arrays of samples, no anchor pass). Keeping
#: the postmortem's per-item and per-iteration columns as well measured
#: 18.7 B and 2.09 B. With every row, as the fleet kept until then,
#: 41.0 B and 2.86 B (names are 4-byte codes, no column holds item ids,
#: row numbers and offsets are 4-byte; rows are found by arithmetic on
#: runs of consecutive item ids, and latency anchors and success marks
#: are row-aligned). Names as shared-string pointers with an item-id column
#: and 8-byte rows measured 55.6 B and 3.58 B; the id -> row dict and the
#: id -> anchor dict before them 83.1 B and 31.3 B; the recorder that
#: kept a record object per interaction 1.40 objects and about 224 B.
TRACKED_OBJECTS_BUDGET = 0.01
TRACE_BYTES_BUDGET = 5.4
ANALYSIS_BYTES_BUDGET = 1.5
#: The same fleet with ``trace_rows=True``: every row, and what every run
#: keeps. Measured 46.7 B when set (44.3 B before each item kept its
#: latency anchor and freed flag, and each sink iteration its thread:
#: 8 B of that anchor array the analysis no longer allocates after the
#: run, so its peak is under the same budget as without rows).
TRACE_ROWS_BYTES_BUDGET = 46.9


def test_what_an_engine_event_leaves_behind():
    growth = counter.growth_per_event(light_fleet, 5.0, 20.0)
    assert growth["tracked_objects_per_event"] <= TRACKED_OBJECTS_BUDGET, (
        f"{growth['tracked_objects_per_event']:.3f} gc-tracked objects "
        f"outlive each engine event, budget {TRACKED_OBJECTS_BUDGET}: "
        f"something keeps an object per interaction again")
    assert growth["trace_bytes_per_event"] <= TRACE_BYTES_BUDGET, (
        f"{growth['trace_bytes_per_event']:.1f} B of trace storage per "
        f"engine event, budget {TRACE_BYTES_BUDGET}")
    assert growth["analysis_bytes_per_event"] <= ANALYSIS_BYTES_BUDGET, (
        f"{growth['analysis_bytes_per_event']:.2f} B of post-run analysis "
        f"peak per engine event, budget {ANALYSIS_BYTES_BUDGET}: is a table "
        f"keyed by item id back?")


def test_blocked_gets_are_records_of_three_tracked_objects():
    # count_calls nets these out of tracked_objects_per_event: their
    # number moves between two horizons without any event leaving one.
    records, owned = counter.blocked_gets(light_fleet(1.0).runtime)
    assert records > 0 and owned == 3 * records


def test_what_an_engine_event_leaves_behind_with_rows():
    growth = counter.growth_per_event(light_fleet_with_rows, 5.0, 20.0)
    assert growth["trace_bytes_per_event"] <= TRACE_ROWS_BYTES_BUDGET, (
        f"{growth['trace_bytes_per_event']:.1f} B of trace storage per "
        f"engine event with rows, budget {TRACE_ROWS_BYTES_BUDGET}")
    assert growth["trace_bytes_by_table"]["touches"] > 0
    assert growth["analysis_bytes_per_event"] <= ANALYSIS_BYTES_BUDGET, (
        f"{growth['analysis_bytes_per_event']:.2f} B of post-run analysis "
        f"peak per engine event with rows, budget {ANALYSIS_BYTES_BUDGET}")


def test_the_recorder_keeps_no_map_that_grows_with_its_items():
    sizes = []
    for horizon in (5.0, 10.0):
        trace = light_fleet(horizon).trace
        assert not trace._pending_row  # every anchor was folded at its alloc
        maps = [value for value in vars(trace).values()
                if isinstance(value, dict)]
        maps += [index._groups for index in vars(trace).values()
                 if hasattr(index, "_groups")]
        sizes.append((len(trace.item_t_alloc), [len(m) for m in maps]))
    (short_items, short_maps), (long_items, long_maps) = sizes
    assert long_items > 1.5 * short_items
    assert short_maps and long_maps == short_maps


def test_analysis_peak_counts_what_follows_the_run_only():
    from repro.runtime.runtime import Runtime

    run = vars(Runtime)["run"]
    _, plain = counter.analysis_peak(light_fleet, 0.5)

    def with_analysis(horizon):
        result = light_fleet(horizon)
        scratch = bytearray(8 << 20)  # allocated after Runtime.run returned
        del scratch
        return result

    _, padded = counter.analysis_peak(with_analysis, 0.5)
    assert plain < 1 << 20
    assert 8 << 20 <= padded < plain + (9 << 20)
    assert vars(Runtime)["run"] is run


def test_trace_bytes_counts_columns_and_maps():
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
    runtime = counter.admit_fleet(light_fleet_spec(tenants, horizon=1.0))
    assert [t.state for t in runtime.tenants.values()] == [RUNNING] * tenants
    return runtime


#: Python calls to admit one light tenant (build and validate its graph,
#: place it, merge it, assemble its buffers and drivers). Measured 516
#: when set (a buffer builds no wait queue for gets, a connection no
#: dataclass default, a driver binds no clock read of its own): 538
#: before that (a driver resolves no telemetry handle), 544 before that (a
#: buffer resolves no telemetry handles), 562 before that
#: (a thread with ARU off holds the shared null controller), 622 before
#: that, 639 before RNG streams built their numpy generator on first
#: draw and R-Storm scored only neighbor nodes when one fits, 764 before
#: the wiring took the tenant as an argument, 3 226 while the graph was
#: networkx.
SETUP_BUDGET = 542


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


#: Traced heap bytes one admitted light tenant holds before its first
#: event (``count_calls.setup_bytes_per_tenant``: admit 40, less admit
#: 20, over 20). Measured 31 510 when set (a buffer holds no wait queue
#: for gets, and no list of them until one blocks; connections are
#: slotted; drivers share their runtime's clock read and timeout and
#: the one identity STP filter); 35 347 before, 35 533 when the budget
#: was set before that (connections and buffers hold
#: no telemetry handles), 35 531 with drivers holding none either (their
#: handle was the shared no-op one: no bytes to save); 35 832 before (a thread with ARU off holds
#: the shared null controller, not a four-object control stack of its
#: own); 38 023 before that, 38 527 after a whole ``fleet_1000`` run in
#: the same process (the tenant keeps no private graph after its first
#: merge, adjacency is a tuple per node and an unbounded buffer has no
#: room queue); 55 531 before that.
SETUP_BYTES_BUDGET = 33_100


def test_heap_bytes_per_admitted_tenant():
    per_tenant = counter.setup_bytes_per_tenant(admit_light_fleet)
    assert per_tenant <= SETUP_BYTES_BUDGET, (
        f"{per_tenant:.0f} B of heap per admitted tenant, budget "
        f"{SETUP_BYTES_BUDGET}: does a tenant keep a second copy of "
        f"its graph again?")


#: Traced heap bytes one more light tenant holds when its run ends
#: (``count_calls.run_end_bytes_per_tenant``: the heap at
#: ``Runtime.run``'s return of 40 tenants at 1.5 simulated s, less of
#: 20, over 20). Measured 39 134 when set (a blocked get is one record
#: on its buffer: no closure, cells or wait queue); 44 238 before.
RUN_END_BYTES_BUDGET = 41_100


def test_heap_bytes_per_tenant_at_the_end_of_a_run():
    per_tenant = counter.run_end_bytes_per_tenant(
        lambda tenants: run_tenants(light_fleet_spec(tenants, horizon=1.5)))
    assert per_tenant <= RUN_END_BYTES_BUDGET, (
        f"{per_tenant:.0f} B of heap per tenant at the end of its run, "
        f"budget {RUN_END_BYTES_BUDGET}: does a blocked get or a driver "
        f"keep an object of its own again?")
