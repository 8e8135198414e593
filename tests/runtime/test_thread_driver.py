"""Integration tests for the thread driver: syscalls, STP, lineage, ARU."""

import pytest

from repro.aru import aru_disabled, aru_min
from repro.cluster import ClusterSpec, LinkSpec, NodeSpec
from repro.errors import SimulationError
from repro.runtime import (
    Compute,
    Get,
    Now,
    PeriodicitySync,
    Put,
    Runtime,
    RuntimeConfig,
    Sleep,
    TaskGraph,
    TryGet,
)


def quiet_cluster(n_nodes=1, latency=0.0, bandwidth=10**12):
    """Noise-free cluster so timing assertions are exact."""
    return ClusterSpec(
        nodes=tuple(NodeSpec(name=f"node{i}", sched_noise_cv=0.0) for i in range(n_nodes)),
        link=LinkSpec(latency_s=latency, bandwidth_bps=bandwidth),
        name="quiet",
    )


def simple_pipeline(prod_period=0.05, cons_compute=0.2, n_items=None):
    def producer(ctx):
        ts = 0
        while n_items is None or ts < n_items:
            yield Compute(prod_period)
            yield Put("c", ts=ts, size=1000)
            ts += 1
            yield PeriodicitySync()

    def consumer(ctx):
        while True:
            yield Get("c")
            yield Compute(cons_compute)
            yield PeriodicitySync()

    g = TaskGraph("simple")
    g.add_thread("prod", producer)
    g.add_thread("cons", consumer, sink=True)
    g.add_channel("c")
    g.connect("prod", "c").connect("c", "cons")
    return g


class TestBasicExecution:
    def test_iteration_counts(self):
        g = simple_pipeline(prod_period=0.1, cons_compute=0.1)
        rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster(), aru=aru_disabled()))
        rec = rt.run(until=10.0)
        assert 95 <= len(rec.iterations_of("prod")) <= 100
        assert 90 <= len(rec.iterations_of("cons")) <= 100

    def test_a_driver_keeps_fewer_than_30_attributes(self):
        # CPython 3.11/3.12 stores an instance's attributes inline only
        # while there are fewer than 30 of them; the 30th gives every
        # driver a real dict (0.8 KB each: +7.5 MB peak RSS on the
        # 6 000 drivers of the e2e benchmark's fleet_1000). Fold or drop
        # an attribute before adding one.
        rt = Runtime(simple_pipeline(), RuntimeConfig(cluster=quiet_cluster()))
        assert len(vars(rt.drivers["prod"])) < 30

    def test_sink_flag_propagates(self):
        g = simple_pipeline()
        rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster(), aru=aru_disabled()))
        rec = rt.run(until=2.0)
        assert all(it.is_sink for it in rec.iterations_of("cons"))
        assert not any(it.is_sink for it in rec.iterations_of("prod"))

    def test_lineage_parents_recorded(self):
        g = simple_pipeline()

        def relay(ctx):
            while True:
                view = yield Get("c2")
                yield Put("c3", ts=view.ts, size=10)
                yield PeriodicitySync()

        g2 = TaskGraph("lineage")

        def producer(ctx):
            ts = 0
            while True:
                yield Compute(0.05)
                yield Put("c2", ts=ts, size=100)
                ts += 1
                yield PeriodicitySync()

        def sink(ctx):
            while True:
                yield Get("c3")
                yield PeriodicitySync()

        g2.add_thread("p", producer)
        g2.add_thread("r", relay)
        g2.add_thread("s", sink, sink=True)
        g2.add_channel("c2").add_channel("c3")
        g2.connect("p", "c2").connect("c2", "r").connect("r", "c3").connect("c3", "s")
        rt = Runtime(g2, RuntimeConfig(cluster=quiet_cluster(), aru=aru_disabled()))
        rec = rt.run(until=3.0)
        relayed = [item for item in rec.items.values() if item.channel == "c3"]
        assert relayed
        for item in relayed:
            assert len(item.parents) == 1
            parent = rec.items[item.parents[0]]
            assert parent.channel == "c2"
            assert parent.ts == item.ts

    def test_source_items_have_no_parents(self):
        g = simple_pipeline()
        rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster(), aru=aru_disabled()))
        rec = rt.run(until=2.0)
        assert all(not item.parents for item in rec.items.values())

    def test_task_body_terminates_cleanly(self):
        g = simple_pipeline(n_items=5)
        rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster(), aru=aru_disabled()))
        rec = rt.run(until=10.0)
        assert len(rec.iterations_of("prod")) == 5

    def test_non_generator_body_raises(self):
        def bad(ctx):
            return 42

        g = TaskGraph()
        g.add_thread("bad", bad)
        g.add_channel("c").connect("bad", "c")
        rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster()))
        with pytest.raises(SimulationError, match="generator"):
            rt.run(until=1.0)

    def test_yielding_garbage_raises(self):
        def bad(ctx):
            yield "not-a-syscall"

        g = TaskGraph()
        g.add_thread("bad", bad)
        g.add_channel("c").connect("bad", "c")
        rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster()))
        with pytest.raises(SimulationError, match="syscall"):
            rt.run(until=1.0)

    def test_get_unknown_channel_raises(self):
        def body(ctx):
            yield Get("nonexistent")

        g = TaskGraph()
        g.add_thread("t", body)
        g.add_channel("c").connect("t", "c")
        rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster()))
        with pytest.raises(SimulationError, match="no input connection"):
            rt.run(until=1.0)


class TestSyscalls:
    def test_now_returns_sim_time(self):
        times = []

        def body(ctx):
            t0 = yield Now()
            yield Sleep(1.5)
            t1 = yield Now()
            times.extend([t0, t1])
            yield Put("c", ts=0, size=1)

        g = TaskGraph()
        g.add_thread("t", body)
        g.add_channel("c").connect("t", "c")
        Runtime(g, RuntimeConfig(cluster=quiet_cluster())).run(until=5.0)
        assert times == [0.0, 1.5]

    def test_tryget_none_when_empty(self):
        results = []

        def cons(ctx):
            r = yield TryGet("c")
            results.append(r)
            yield Sleep(1.0)
            r2 = yield TryGet("c")
            results.append(r2.ts if r2 else None)

        def prod(ctx):
            yield Sleep(0.5)
            yield Put("c", ts=3, size=1)

        g = TaskGraph()
        g.add_thread("prod", prod)
        g.add_thread("cons", cons)
        g.add_channel("c").connect("prod", "c").connect("c", "cons")
        Runtime(g, RuntimeConfig(cluster=quiet_cluster())).run(until=5.0)
        assert results == [None, 3]

    def test_sleep_counts_toward_stp(self):
        def paced(ctx):
            ts = 0
            while True:
                yield Sleep(0.1)
                yield Put("c", ts=ts, size=1)
                ts += 1
                yield PeriodicitySync()

        g = TaskGraph()
        g.add_thread("paced", paced)
        g.add_channel("c").connect("paced", "c")
        rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster(), aru=aru_min()))
        rec = rt.run(until=3.0)
        stps = [s.current_stp for s in rec.stp_samples if s.thread == "paced"]
        assert stps and all(s == pytest.approx(0.1) for s in stps)

    def test_blocking_excluded_from_stp(self):
        g = simple_pipeline(prod_period=0.5, cons_compute=0.05)
        rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster(), aru=aru_min()))
        rec = rt.run(until=10.0)
        # consumer blocks ~0.45s per iteration; its STP must be ~0.05
        stps = [s.current_stp for s in rec.stp_samples if s.thread == "cons"][1:]
        assert stps
        for stp in stps:
            assert stp == pytest.approx(0.05, abs=0.01)

    def test_compute_returns_actual_duration(self):
        actuals = []

        def body(ctx):
            actual = yield Compute(0.2)
            actuals.append(actual)
            yield Put("c", ts=0, size=1)

        g = TaskGraph()
        g.add_thread("t", body)
        g.add_channel("c").connect("t", "c")
        Runtime(g, RuntimeConfig(cluster=quiet_cluster())).run(until=1.0)
        assert actuals == [pytest.approx(0.2)]


class TestAruThrottling:
    def test_source_throttles_to_consumer_rate(self):
        g = simple_pipeline(prod_period=0.01, cons_compute=0.2)
        rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster(), aru=aru_min(), seed=0))
        rec = rt.run(until=30.0)
        prod_iters = rec.iterations_of("prod")
        # after warmup the producer period should approach 0.2 s
        late = [it for it in prod_iters if it.t_start > 5.0]
        periods = [it.duration for it in late]
        assert periods
        mean_period = sum(periods) / len(periods)
        assert mean_period == pytest.approx(0.2, rel=0.15)

    def test_no_throttle_without_aru(self):
        g = simple_pipeline(prod_period=0.01, cons_compute=0.2)
        rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster(), aru=aru_disabled()))
        rec = rt.run(until=10.0)
        assert all(it.slept == 0.0 for it in rec.iterations_of("prod"))

    def test_waste_reduced_by_aru(self):
        from repro.metrics import PostmortemAnalyzer

        g = simple_pipeline(prod_period=0.01, cons_compute=0.2)
        waste = {}
        for aru in (aru_disabled(), aru_min()):
            rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster(), aru=aru, seed=3))
            rec = rt.run(until=30.0)
            waste[aru.name] = PostmortemAnalyzer(rec).wasted_memory_fraction
        assert waste["no-aru"] > 0.5
        assert waste["aru-min"] < 0.1

    def test_mid_pipeline_thread_not_directly_throttled(self):
        def producer(ctx):
            ts = 0
            while True:
                yield Sleep(0.05)
                yield Put("a", ts=ts, size=10)
                ts += 1
                yield PeriodicitySync()

        def relay(ctx):
            while True:
                view = yield Get("a")
                yield Compute(0.01)
                yield Put("b", ts=view.ts, size=10)
                yield PeriodicitySync()

        def sink(ctx):
            while True:
                yield Get("b")
                yield Compute(0.3)
                yield PeriodicitySync()

        g = TaskGraph()
        g.add_thread("p", producer)
        g.add_thread("r", relay)
        g.add_thread("s", sink, sink=True)
        g.add_channel("a").add_channel("b")
        g.connect("p", "a").connect("a", "r").connect("r", "b").connect("b", "s")
        rt = Runtime(g, RuntimeConfig(cluster=quiet_cluster(), aru=aru_min()))
        rec = rt.run(until=20.0)
        # relay never sleeps (not a source), but its *rate* follows the sink
        assert all(it.slept == 0.0 for it in rec.iterations_of("r"))
        late_relay = [it for it in rec.iterations_of("r") if it.t_start > 5.0]
        mean_period = sum(it.duration for it in late_relay) / len(late_relay)
        assert mean_period == pytest.approx(0.3, rel=0.2)


class TestRemotePlacement:
    def test_remote_put_costs_network_time(self):
        done = []

        def src(ctx):
            yield Put("c", ts=0, size=1_000_000)
            done.append((yield Now()))

        g = TaskGraph()
        g.add_thread("src", src, node="node0")
        g.add_channel("c", node="node1")
        g.connect("src", "c")
        cluster = quiet_cluster(n_nodes=2, latency=0.001, bandwidth=1_000_000)
        Runtime(g, RuntimeConfig(cluster=cluster)).run(until=10.0)
        assert done == [pytest.approx(1.001)]

    def test_local_put_is_instant(self):
        done = []

        def src(ctx):
            yield Put("c", ts=0, size=1_000_000)
            done.append((yield Now()))

        g = TaskGraph()
        g.add_thread("src", src, node="node0")
        g.add_channel("c", node="node0")
        g.connect("src", "c")
        cluster = quiet_cluster(n_nodes=2, latency=0.001, bandwidth=1_000_000)
        Runtime(g, RuntimeConfig(cluster=cluster)).run(until=10.0)
        assert done == [0.0]

    def test_remote_get_ships_bytes_to_consumer(self):
        times = []

        def src(ctx):
            yield Put("c", ts=0, size=2_000_000)

        def dst(ctx):
            yield Get("c")
            times.append((yield Now()))

        g = TaskGraph()
        g.add_thread("src", src, node="node0")
        g.add_thread("dst", dst, node="node1", sink=True)
        g.add_channel("c")  # co-located with producer -> node0
        g.connect("src", "c").connect("c", "dst")
        cluster = quiet_cluster(n_nodes=2, latency=0.0, bandwidth=1_000_000)
        Runtime(g, RuntimeConfig(cluster=cluster)).run(until=10.0)
        assert times == [pytest.approx(2.0)]

    def test_kill_mid_transfer_releases_the_reference(self):
        # commit_get takes a reference before the bytes ship; a kill
        # landing during the transfer must still release it, or the item
        # stays pinned in the channel forever and poisons any later
        # producer restart that reuses the timestamp (tenant revocation,
        # crash recovery).
        def src(ctx):
            yield Put("c", ts=0, size=2_000_000)

        def dst(ctx):
            yield Get("c")
            yield Sleep(100.0)

        g = TaskGraph()
        g.add_thread("src", src, node="node0")
        g.add_thread("dst", dst, node="node1", sink=True)
        g.add_channel("c")  # co-located with producer -> node0
        g.connect("src", "c").connect("c", "dst")
        cluster = quiet_cluster(n_nodes=2, latency=0.0, bandwidth=1_000_000)
        rt = Runtime(g, RuntimeConfig(cluster=cluster))
        rt.advance(1.0)  # the 2 MB transfer takes 2 s: dst is mid-shipment
        buffer = rt.buffers["c"]
        item = buffer.items_snapshot()[0]
        assert item.refcount == 1
        rt.kill_thread("dst", "mid-transfer crash")
        rt.advance(0.1)  # deliver the kill
        assert item.refcount == 0
        buffer.drain(rt.engine.now)
        assert item.freed
        assert len(buffer) == 0

    def test_channel_default_colocation_with_producer(self):
        def src(ctx):
            yield Put("c", ts=0, size=1)

        g = TaskGraph()
        g.add_thread("src", src, node="node1")
        g.add_channel("c")
        g.connect("src", "c")
        cluster = quiet_cluster(n_nodes=2)
        rt = Runtime(g, RuntimeConfig(cluster=cluster))
        assert rt.buffers["c"].node.name == "node1"
