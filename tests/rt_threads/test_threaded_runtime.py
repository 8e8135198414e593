"""Integration tests for the real-threads executor.

Wall-clock timing on shared CI boxes is noisy; these tests assert
structure and coarse behaviour only, with generous margins.
"""

import pytest

from repro.aru import aru_disabled, aru_min
from repro.errors import ConfigError
from repro.experiment import ExperimentSpec, run_experiment
from repro.metrics import PostmortemAnalyzer
from repro.rt_threads.executor import ThreadedRuntime
from repro.runtime import (
    Compute,
    Get,
    PeriodicitySync,
    Put,
    Sleep,
    TaskGraph,
    TryGet,
)
from repro.vt import EARLIEST


def small_pipeline(prod_period=0.005, cons_compute=0.02):
    def producer(ctx):
        ts = 0
        while True:
            yield Sleep(prod_period)
            yield Put("c", ts=ts, size=1000)
            ts += 1
            yield PeriodicitySync()

    def consumer(ctx):
        while True:
            yield Get("c")
            yield Compute(cons_compute)
            yield PeriodicitySync()

    g = TaskGraph("threads-smoke")
    g.add_thread("prod", producer)
    g.add_thread("cons", consumer, sink=True)
    g.add_channel("c")
    g.connect("prod", "c").connect("c", "cons")
    return g


class TestBasics:
    def test_pipeline_flows(self):
        ex = ThreadedRuntime(small_pipeline(), aru=aru_disabled())
        rec = ex.run(duration=0.8)
        assert len(rec.iterations_of("prod")) > 20
        assert len(rec.iterations_of("cons")) > 5
        assert rec.sink_iterations()

    def test_lineage_recorded(self):
        ex = ThreadedRuntime(small_pipeline(), aru=aru_disabled())
        rec = ex.run(duration=0.5)
        pm = PostmortemAnalyzer(rec)
        assert pm.delivered_ids

    def test_run_twice_rejected(self):
        ex = ThreadedRuntime(small_pipeline())
        ex.run(duration=0.2)
        with pytest.raises(Exception):
            ex.run(duration=0.2)

    def test_bad_duration(self):
        ex = ThreadedRuntime(small_pipeline())
        with pytest.raises(ConfigError):
            ex.run(duration=0.0)

    def test_queues_rejected(self):
        g = TaskGraph()

        def src(ctx):
            yield Put("q", ts=0, size=1)

        g.add_thread("src", src)
        g.add_queue("q").connect("src", "q")
        with pytest.raises(ConfigError):
            ThreadedRuntime(g)

    def test_scaling_off_runs(self):
        """``no-scale`` is scaling off (``None``), which threads run."""
        result = run_experiment(ExperimentSpec(
            app=small_pipeline(), backend="threads", horizon=0.3,
            scale_policy="no-scale"))
        assert result.trace.sink_iterations()
        with pytest.raises(ConfigError, match="elastic scaling"):
            run_experiment(ExperimentSpec(
                app=small_pipeline(), backend="threads", horizon=0.3,
                scale_policy="erlang"))

    def test_bad_compute_mode(self):
        with pytest.raises(ConfigError):
            ThreadedRuntime(small_pipeline(), compute_mode="quantum")

    def test_task_error_propagates(self):
        def bad(ctx):
            yield Compute(0.01)
            raise RuntimeError("task exploded")

        g = TaskGraph()
        g.add_thread("bad", bad)
        g.add_channel("c").connect("bad", "c")
        ex = ThreadedRuntime(g)
        with pytest.raises(RuntimeError, match="exploded"):
            ex.run(duration=0.3)

    def test_task_error_after_get_leaves_no_reference(self):
        """A body that raises while holding a get must not pin the item:
        the driver's ``finally`` releases it, as a simulated kill does
        (``test_killed_thread_releases_held_items``). An unreleased
        ``(ts 0, refcount 1)`` would freeze the DGC threshold for every
        other consumer of the channel."""
        def producer(ctx):
            yield Put("c", ts=0, size=10)
            yield Put("c", ts=1, size=10)

        def consumer(ctx):
            yield Get("c", EARLIEST)
            raise RuntimeError("task exploded")

        g = TaskGraph()
        g.add_thread("prod", producer)
        g.add_thread("cons", consumer, sink=True)
        g.add_channel("c").connect("prod", "c").connect("c", "cons")
        ex = ThreadedRuntime(g)
        ex.start()
        with pytest.raises(RuntimeError, match="exploded"):
            ex.join(timeout=10.0)
        left = [(item.ts, item.refcount)
                for item in ex.channels["c"]._state.items_snapshot()]
        assert left == [(1, 0)]

    def test_stop_during_get_ends_the_thread_quietly(self):
        """A get blocked at shutdown is not a timed get expiring: the
        task never sees a ``None``, and nothing it held stays pinned."""
        seen = []

        def producer(ctx):
            yield Put("c", ts=0, size=10)

        def consumer(ctx):
            seen.append((yield Get("c", hold=True)))
            seen.append((yield Get("c")))

        g = TaskGraph()
        g.add_thread("prod", producer)
        g.add_thread("cons", consumer, sink=True)
        g.add_channel("c").connect("prod", "c").connect("c", "cons")
        ex = ThreadedRuntime(g)
        ex.run(duration=0.3)
        assert [view.ts for view in seen] == [0]
        assert all(item.refcount == 0
                   for item in ex.channels["c"]._state.items_snapshot())


class TestSemantics:
    def test_dgc_bounds_channel_occupancy(self):
        """Skipped items must be collected, keeping the channel small."""
        ex = ThreadedRuntime(small_pipeline(prod_period=0.001, cons_compute=0.05))
        ex.run(duration=0.8)
        channel = ex.channels["c"]
        assert channel.total_skips > 0
        assert channel.total_frees > 0
        # DGC collects on every consumer get, so residency is bounded by
        # one inter-get window of production, not by total puts.
        assert channel.total_frees > 0.7 * channel.total_puts
        assert len(channel) < 0.3 * channel.total_puts

    def test_aru_throttles_source(self):
        ex = ThreadedRuntime(
            small_pipeline(prod_period=0.001, cons_compute=0.05), aru=aru_min()
        )
        rec = ex.run(duration=1.5)
        late = [it for it in rec.iterations_of("prod") if it.t_start > 0.7]
        assert late
        slept = sum(it.slept for it in late)
        assert slept > 0
        mean_period = sum(it.duration for it in late) / len(late)
        assert mean_period > 0.02  # throttled well below the 1 kHz free rate

    def test_aru_reduces_waste(self):
        waste = {}
        for aru in (aru_disabled(), aru_min()):
            ex = ThreadedRuntime(
                small_pipeline(prod_period=0.001, cons_compute=0.05), aru=aru
            )
            rec = ex.run(duration=1.5)
            waste[aru.name] = PostmortemAnalyzer(rec).wasted_memory_fraction
        assert waste["aru-min"] < waste["no-aru"]

    def test_tryget(self):
        seen = []

        def poller(ctx):
            view = yield TryGet("c")
            seen.append(view)
            yield Sleep(0.2)
            view = yield TryGet("c")
            seen.append(view.ts if view else None)

        def src(ctx):
            yield Sleep(0.05)
            yield Put("c", ts=7, size=1)

        g = TaskGraph()
        g.add_thread("src", src)
        g.add_thread("poller", poller, sink=True)
        g.add_channel("c").connect("src", "c").connect("c", "poller")
        ThreadedRuntime(g).run(duration=0.5)
        assert seen[0] is None
        assert seen[1] == 7

    def test_timed_get(self):
        results = []

        def src(ctx):
            yield Sleep(0.3)
            yield Put("c", ts=0, size=1)

        def cons(ctx):
            view = yield Get("c", timeout=0.05)
            results.append(view)
            view = yield Get("c", timeout=2.0)
            results.append(view.ts if view else None)

        g = TaskGraph()
        g.add_thread("src", src)
        g.add_thread("cons", cons, sink=True)
        g.add_channel("c").connect("src", "c").connect("c", "cons")
        ThreadedRuntime(g).run(duration=0.8)
        assert results[0] is None   # first get timed out
        assert results[1] == 0      # second get caught the item

    def test_stp_excludes_blocking(self):
        ex = ThreadedRuntime(small_pipeline(prod_period=0.08, cons_compute=0.005))
        rec = ex.run(duration=1.0)
        stps = [s.current_stp for s in rec.stp_samples if s.thread == "cons"][1:]
        assert stps
        # consumer blocks ~75 ms/iter but its STP must stay near 5 ms
        assert sum(stps) / len(stps) < 0.05


class TestCollectorIsTheSpecs:
    """``ExperimentSpec.gc`` reaches the live channels (it used to be
    dropped: every ``ThreadChannel`` built its own DGC)."""

    @staticmethod
    def run_with(gc):
        result = run_experiment(ExperimentSpec(
            app=small_pipeline(prod_period=0.001, cons_compute=0.02),
            backend="threads", gc=gc, horizon=0.6))
        return result.stats["buffers"]["c"], result.runtime.channels["c"]

    def test_null_frees_nothing(self):
        stats, channel = self.run_with("null")
        assert stats["puts"] > 20 and stats["skips"] > 0
        assert stats["frees"] == 0
        assert stats["depth"] == stats["puts"]
        assert channel._state.gc.name == "null"

    def test_ref_frees_only_what_was_consumed(self):
        stats, channel = self.run_with("ref")
        assert channel._state.gc.name == "ref"
        assert 0 < stats["frees"] <= stats["gets"]
        assert stats["depth"] >= stats["skips"]  # skipped items leak

    def test_default_is_still_dgc(self):
        ex = ThreadedRuntime(small_pipeline())
        assert ex.channels["c"]._state.gc.name == "dgc"

    def test_each_channel_has_its_own_collector(self):
        g = small_pipeline()
        g.add_channel("d").connect("prod", "d").connect("d", "cons")
        ex = ThreadedRuntime(g, gc="ref")
        assert ex.channels["c"]._state.gc is not ex.channels["d"]._state.gc

    def test_tgc_is_rejected_by_name_of_the_backend_that_runs_it(self):
        with pytest.raises(ConfigError, match="tgc.*backend='sim'"):
            run_experiment(ExperimentSpec(
                app=small_pipeline(), backend="threads", gc="tgc",
                horizon=0.2))
