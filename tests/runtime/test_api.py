"""Tests for the Stampede-flavoured API facade."""

import pytest

from repro.aru import aru_min
from repro.cluster import ClusterSpec, NodeSpec
from repro.errors import GraphError
from repro.metrics import PostmortemAnalyzer
from repro.runtime import Compute, Get, Put, Sleep, TryGet
from repro.runtime.api import (
    StampedeApp,
    compute,
    get,
    now,
    periodicity_sync,
    put,
    sleep,
    try_get,
)
from repro.vt import EARLIEST, LATEST


class TestSyscallConstructors:
    def test_get_defaults_to_latest(self):
        sc = get("c")
        assert isinstance(sc, Get)
        assert sc.request is LATEST

    def test_get_custom_request(self):
        assert get("c", EARLIEST).request is EARLIEST
        assert get("c", 5).request == 5

    def test_put(self):
        sc = put("c", ts=3, size=100, payload="x")
        assert isinstance(sc, Put)
        assert (sc.channel, sc.ts, sc.size, sc.payload) == ("c", 3, 100, "x")

    def test_others(self):
        assert isinstance(try_get("c"), TryGet)
        assert isinstance(compute(0.1), Compute)
        assert compute(0.1).seconds == 0.1
        assert isinstance(sleep(0.2), Sleep)
        assert periodicity_sync() is not None
        assert now() is not None


def build_app():
    app = StampedeApp("api-demo")

    def src(ctx):
        ts = 0
        while True:
            yield sleep(0.01)
            yield put("c", ts=ts, size=500)
            ts += 1
            yield periodicity_sync()

    def dst(ctx):
        while True:
            yield get("c")
            yield compute(0.05)
            yield periodicity_sync()

    app.spd_thread_create("src", src)
    app.spd_chan_alloc("c", compress_op="max")
    app.spd_thread_create("dst", dst, sink=True)
    app.spd_attach_output("src", "c")
    app.spd_attach_input("c", "dst")
    return app


class TestStampedeApp:
    def test_builder_chains(self):
        app = build_app()
        assert app.graph.threads() == ["src", "dst"]
        assert app.graph.channels() == ["c"]
        assert app.graph.attrs("c")["compress_op"] == "max"

    def test_run_simulated(self):
        app = build_app()
        cluster = ClusterSpec(nodes=(NodeSpec(name="node0", sched_noise_cv=0.0),))
        trace = app.run_simulated(until=5.0, cluster=cluster, aru=aru_min())
        assert trace.sink_iterations()
        pm = PostmortemAnalyzer(trace)
        assert pm.wasted_memory_fraction < 0.2  # ARU active

    def test_run_simulated_default_cluster(self):
        trace = build_app().run_simulated(until=2.0)
        assert trace.sink_iterations()

    def test_queue_alloc(self):
        app = StampedeApp()

        def src(ctx):
            yield put("q", ts=0, size=1)

        app.spd_thread_create("src", src)
        app.spd_queue_alloc("q")
        app.spd_attach_output("src", "q")
        assert app.graph.queues() == ["q"]

    def test_invalid_attach_raises(self):
        app = StampedeApp()

        def src(ctx):
            yield periodicity_sync()

        app.spd_thread_create("a", src).spd_thread_create("b", src)
        with pytest.raises(GraphError):
            app.spd_attach_output("a", "b")
