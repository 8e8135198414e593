"""Tests for incremental runtime execution (advance / finalize)."""

import pytest

from repro.aru import aru_min
from repro.cluster import ClusterSpec, NodeSpec
from repro.errors import ConfigError, SimulationError
from repro.runtime import (
    Compute,
    Get,
    PeriodicitySync,
    Put,
    Runtime,
    RuntimeConfig,
    Sleep,
    TaskGraph,
)


def build():
    def src(ctx):
        ts = 0
        while True:
            yield Sleep(0.01)
            yield Put("c", ts=ts, size=100)
            ts += 1
            yield PeriodicitySync()

    def dst(ctx):
        while True:
            yield Get("c")
            yield Compute(0.05)
            yield PeriodicitySync()

    g = TaskGraph()
    g.add_thread("src", src)
    g.add_thread("dst", dst, sink=True)
    g.add_channel("c")
    g.connect("src", "c").connect("c", "dst")
    cluster = ClusterSpec(nodes=(NodeSpec(name="node0", sched_noise_cv=0.0),))
    return Runtime(g, RuntimeConfig(cluster=cluster, aru=aru_min()))


def test_advance_in_phases_equivalent_to_single_run():
    rt_a = build()
    rt_a.advance(3.0).advance(2.0).advance(5.0)
    rec_a = rt_a.finalize()

    rt_b = build()
    rec_b = rt_b.run(until=10.0)

    assert rec_a.t_end == rec_b.t_end == 10.0
    assert len(rec_a.iterations) == len(rec_b.iterations)
    assert [i.t_end for i in rec_a.iterations] == [i.t_end for i in rec_b.iterations]


def test_state_inspectable_between_phases():
    rt = build()
    rt.advance(2.0)
    mid_occupancy = len(rt.channel("c"))
    assert rt.engine.now == 2.0
    assert mid_occupancy >= 0  # channel accessible mid-run
    assert rt.drivers["src"].meter.iterations > 0
    rt.advance(1.0)
    rt.finalize()


def test_advance_after_finalize_rejected():
    rt = build()
    rt.run(until=1.0)
    with pytest.raises(SimulationError):
        rt.advance(1.0)
    with pytest.raises(SimulationError):
        rt.finalize()


def test_nonpositive_dt_rejected():
    rt = build()
    with pytest.raises(ConfigError):
        rt.advance(0.0)
    with pytest.raises(ConfigError):
        rt.advance(-1.0)


def test_finalize_without_advance_gives_empty_trace():
    rt = build()
    rec = rt.finalize()
    assert rec.t_end == 0.0
    assert not rec.iterations
