"""Tests for Runtime wiring, placement, config, and global virtual time."""

import pytest

from repro.aru import aru_min
from repro.cluster import ClusterSpec, LinkSpec, NodeSpec, config2_spec
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


def quiet_cluster(n=1):
    return ClusterSpec(
        nodes=tuple(NodeSpec(name=f"node{i}", sched_noise_cv=0.0) for i in range(n)),
        link=LinkSpec(latency_s=0.0, bandwidth_bps=10**12),
        name="quiet",
    )


def tiny_graph():
    def src(ctx):
        ts = 0
        while True:
            yield Sleep(0.1)
            yield Put("c", ts=ts, size=10)
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
    return g


class TestConfig:
    def test_defaults(self):
        cfg = RuntimeConfig()
        assert cfg.gc == "dgc"
        assert cfg.aru.enabled is False
        assert cfg.seed == 0

    def test_run_twice_rejected(self):
        rt = Runtime(tiny_graph(), RuntimeConfig(cluster=quiet_cluster()))
        rt.run(until=1.0)
        with pytest.raises(SimulationError):
            rt.run(until=1.0)

    def test_nonpositive_horizon_rejected(self):
        rt = Runtime(tiny_graph(), RuntimeConfig(cluster=quiet_cluster()))
        with pytest.raises(ConfigError):
            rt.run(until=0.0)

    def test_invalid_graph_rejected_at_construction(self):
        g = TaskGraph()
        g.add_thread("t", None)
        with pytest.raises(Exception):
            Runtime(g, RuntimeConfig(cluster=quiet_cluster()))

    def test_unknown_gc_rejected(self):
        with pytest.raises(ConfigError):
            Runtime(tiny_graph(), RuntimeConfig(cluster=quiet_cluster(), gc="magic"))


class TestPlacement:
    def test_placement_override_wins(self):
        g = tiny_graph()
        cfg = RuntimeConfig(
            cluster=quiet_cluster(n=2),
            placement={"src": "node1", "c": "node1", "dst": "node0"},
        )
        rt = Runtime(g, cfg)
        assert rt.drivers["src"].node.name == "node1"
        assert rt.buffers["c"].node.name == "node1"
        assert rt.drivers["dst"].node.name == "node0"

    def test_default_everything_on_first_node(self):
        rt = Runtime(tiny_graph(), RuntimeConfig(cluster=quiet_cluster(n=3)))
        assert rt.drivers["src"].node.name == "node0"
        assert rt.buffers["c"].node.name == "node0"

    def test_unknown_placement_node_rejected(self):
        with pytest.raises(ConfigError):
            Runtime(
                tiny_graph(),
                RuntimeConfig(cluster=quiet_cluster(), placement={"src": "mars"}),
            )

    def test_graph_attr_node_unknown_rejected(self):
        g = TaskGraph()

        def src(ctx):
            yield Put("c", ts=0, size=1)

        g.add_thread("src", src, node="nowhere")
        g.add_channel("c").connect("src", "c")
        with pytest.raises(ConfigError):
            Runtime(g, RuntimeConfig(cluster=quiet_cluster()))


class TestAccessors:
    def test_channel_accessor(self):
        rt = Runtime(tiny_graph(), RuntimeConfig(cluster=quiet_cluster()))
        assert rt.channel("c").name == "c"
        with pytest.raises(ConfigError):
            rt.queue("c")
        with pytest.raises(ConfigError):
            rt.channel("nope")


class TestRestart:
    def test_two_restarts_in_one_instant(self):
        """A crash re-placement and an arbiter migration can both restart
        a thread in the same instant. The first restart's incarnation
        has not started when the second takes its connections; it must
        never run, or its first ``Get`` hits an unregistered consumer."""
        rt = Runtime(tiny_graph(), RuntimeConfig(cluster=quiet_cluster()))

        def supervisor():
            yield rt.engine.timeout(1.0)
            rt.restart_thread("dst")
            rt.restart_thread("dst")

        rt.engine.process(supervisor())
        trace = rt.run(until=3.0)
        assert rt.thread_alive("dst")
        assert any(it.t_start > 1.0 for it in trace.iterations_of("dst"))


class TestGlobalVirtualTime:
    def test_gvt_advances_with_slowest_thread(self):
        rt = Runtime(tiny_graph(), RuntimeConfig(cluster=quiet_cluster(), gc="tgc"))
        assert rt.global_virtual_time() == 0
        rt.run(until=5.0)
        gvt = rt.global_virtual_time()
        assert gvt is not None and gvt > 10  # both threads progressed

    def test_gvt_is_min_over_threads(self):
        # a second, slow consumer holds GVT back
        def src(ctx):
            ts = 0
            while True:
                yield Sleep(0.05)
                yield Put("c", ts=ts, size=10)
                ts += 1
                yield PeriodicitySync()

        def fast(ctx):
            while True:
                yield Get("c")
                yield PeriodicitySync()

        def slow(ctx):
            while True:
                yield Get("c")
                yield Compute(1.0)
                yield PeriodicitySync()

        g = TaskGraph()
        g.add_thread("src", src)
        g.add_thread("fast", fast)
        g.add_thread("slow", slow, sink=True)
        g.add_channel("c")
        g.connect("src", "c").connect("c", "fast").connect("c", "slow")
        rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster(), gc="tgc"))
        rt.run(until=10.0)
        slow_cursor = rt.drivers["slow"].virtual_time
        assert rt.global_virtual_time() == slow_cursor
        assert rt.drivers["fast"].virtual_time > slow_cursor


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        def run(seed):
            rt = Runtime(
                tiny_graph(),
                RuntimeConfig(cluster=config2_spec(n_nodes=2), aru=aru_min(), seed=seed),
            )
            rec = rt.run(until=5.0)
            return [
                (it.thread, round(it.t_start, 9), round(it.t_end, 9))
                for it in rec.iterations
            ]

        assert run(7) == run(7)

    def test_different_seed_differs(self):
        def run(seed):
            g = tiny_graph()
            cluster = ClusterSpec(
                nodes=(NodeSpec(name="node0", sched_noise_cv=0.3),), name="noisy"
            )
            rt = Runtime(g, RuntimeConfig(cluster=cluster, seed=seed))
            rec = rt.run(until=5.0)
            return [round(it.t_end, 9) for it in rec.iterations]

        assert run(1) != run(2)
