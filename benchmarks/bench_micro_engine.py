"""[micro] Engine and channel primitive throughput.

True repeated-measurement micro-benchmarks (multiple rounds) of the
substrate: DES event dispatch rate, the process resume trampoline,
channel put/get cycles, postmortem trace analysis, and the end-to-end
simulation rate of the tracker (simulated seconds per wall second).
These guard against performance regressions in the kernel that would
make the table benches impractically slow; ``check_regression.py``
compares the dispatch rate against the committed ``BENCH_kernel.json``
baseline.
"""

import pytest

from repro.aru import aru_disabled
from repro.bench import run_tracker_once
from repro.cluster import Node, NodeSpec
from repro.gc import make_gc
from repro.metrics import TraceRecorder
from repro.runtime import Channel, Item
from repro.sim import Engine, RngRegistry
from repro.sim.events import Timeout
from repro.vt import LATEST

N_EVENTS = 20_000
N_OPS = 5_000

#: Same-timestamp events per calendar tick in the cohort sweep: from
#: fully scalar (every event its own instant) to one giant cohort.
COHORT_SIZES = (1, 8, 64, 512)


def _spin_engine():
    eng = Engine()

    def ticker(eng, n):
        for _ in range(n):
            yield eng.timeout(0.001)

    eng.process(ticker(eng, N_EVENTS))
    eng.run()
    return eng.events_processed


def test_engine_event_rate(benchmark):
    events = benchmark(_spin_engine)
    assert events >= N_EVENTS


def _schedule_cohorts(cohort: int) -> Engine:
    """An engine with N_EVENTS pre-scheduled timeouts, ``cohort`` per tick."""
    eng = Engine()
    tick = 0.0
    for i in range(N_EVENTS):
        if i % cohort == 0:
            tick += 0.001
        Timeout(eng, tick)
    return eng


@pytest.mark.parametrize("cohort", COHORT_SIZES)
def test_dispatch_rate_by_cohort_size(benchmark, cohort):
    """Pure calendar drain across cohort sizes (the ISSUE-7 sweep).

    Scheduling happens in per-round setup, outside the timed region, so
    the measurement isolates the batched cohort dispatch loop. The
    sweep shows how the per-tick batch amortizes the clock write and
    heap pop: cohort=1 is the scalar worst case, larger cohorts
    approach the pure dispatch ceiling that ``check_regression.py``
    gates as ``dispatch_events_per_sec``.
    """
    def setup():
        return (_schedule_cohorts(cohort),), {}

    def drain(eng):
        eng.run()
        return eng.events_processed

    events = benchmark.pedantic(drain, setup=setup, rounds=5)
    assert events == N_EVENTS


def _spin_trampoline():
    """Resume rate for yields of already-fired events (the slim-entry path)."""
    eng = Engine()
    fired = eng.event()
    fired.succeed("x")
    eng.run()

    def chaser(eng, n):
        for _ in range(n):
            yield fired

    eng.process(chaser(eng, N_EVENTS))
    eng.run()
    return eng.events_processed


def test_process_trampoline_rate(benchmark):
    events = benchmark(_spin_trampoline)
    assert events >= N_EVENTS


def _tracker_recorder(horizon=60.0):
    from repro.apps import build_tracker
    from repro.cluster import config1_spec
    from repro.runtime import Runtime, RuntimeConfig

    runtime = Runtime(
        build_tracker(),
        RuntimeConfig(
            cluster=config1_spec(),
            gc="dgc",
            aru=aru_disabled(),
            seed=0,
        ),
    )
    return runtime.run(until=horizon)


def _full_postmortem(recorder):
    from repro.metrics import (
        PostmortemAnalyzer,
        jitter,
        latency_stats,
        throughput_fps,
    )

    pm = PostmortemAnalyzer(recorder)
    pm.footprint().mean()
    pm.ideal_footprint().mean()
    report = pm.channel_report()
    pm.thread_waste_report()
    latency_stats(recorder)
    throughput_fps(recorder)
    jitter(recorder)
    return (pm.wasted_memory_fraction, pm.wasted_computation_fraction,
            len(report))


def test_postmortem_analysis_rate(benchmark):
    """Full §4 metric suite over one tracker trace. A fresh analyzer per
    round recomputes every cached aggregate; the recorder's trace indexes
    persist across rounds, exactly as they do across repeated analyses of
    one finalized run."""
    recorder = _tracker_recorder()
    wasted_mem, wasted_comp, channels = benchmark(_full_postmortem, recorder)
    assert 0.0 <= wasted_mem <= 1.0
    assert 0.0 <= wasted_comp <= 1.0
    assert channels > 0


def _put_get_cycle():
    eng = Engine()
    node = Node(eng, NodeSpec(name="n0"), RngRegistry(0))
    rec = TraceRecorder(record_stp=False)
    ch = Channel(eng, "ch", node, recorder=rec, gc=make_gc("dgc"))
    prod = ch.register_producer("p")
    cons = ch.register_consumer("c")
    for ts in range(N_OPS):
        ch.commit_put(prod, Item(ts=ts, size=64), t=float(ts))
        view = ch.commit_get(cons, LATEST, t=float(ts))
        ch.release(view._item, t=float(ts))
    return ch.total_puts


def test_channel_put_get_rate(benchmark):
    puts = benchmark(_put_get_cycle)
    assert puts == N_OPS


def test_tracker_simulation_rate(benchmark):
    """One 30-simulated-second tracker run; wall time is the metric."""
    run = benchmark.pedantic(
        lambda: run_tracker_once("config1", aru_disabled(), seed=0, horizon=30.0),
        rounds=3,
        iterations=1,
    )
    assert run.frames_delivered > 30
