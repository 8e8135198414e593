"""The counts telemetry reads equal the trace's own counts.

A buffer's puts, gets, skips and frees, a thread's iterations, compute,
blocked and slept seconds and its last STP, summary-STP and throttle
target, a tenant's deliveries and a link's bytes and transfers are not
pushed to the hub: it reads the counts the runtime keeps when a
snapshot is taken. The :class:`~repro.metrics.recorder.TraceRecorder`
is an independent record of the same events, so every series must
agree with it — also after what counted them is gone: a revoked
tenant's threads, a restarted thread's old incarnation, a replica
retired by scale-in and a thread killed in the middle of a transfer.
"""

from collections import Counter

import pytest

from repro.apps import ElasticConfig, elastic_pipeline
from repro.cluster import ClusterSpec, LinkSpec, NodeSpec
from repro.cluster.spec import uniform_spec
from repro.control.controller import ThreadController
from repro.control.sensor import StpSensor
from repro.obs import TelemetryConfig, TelemetryHub
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
from repro.tenancy import (
    Scheduler,
    TenancySpec,
    TenantRuntime,
    TenantSpec,
    scaled_tracker_config,
)
from repro.tenancy.tenant import RUNNING, Tenant


def trace_counts(trace):
    """Per-buffer and per-(buffer, consumer) counts, from the trace."""
    buffers, reads = {}, Counter()
    for item in trace.items.values():
        counts = buffers.setdefault(item.channel, Counter())
        counts["puts"] += 1
        counts["bytes"] += item.size
        if item.freed:
            counts["frees"] += 1
            counts["freed_bytes"] += item.size
        for touch in item.gets:
            reads[item.channel, touch.consumer, "gets"] += 1
        for touch in item.skips:
            reads[item.channel, touch.consumer, "skips"] += 1
    return buffers, reads


def assert_read_counts_match_the_trace(runtime):
    buffers, reads = trace_counts(runtime.recorder)
    m = runtime.obs.metrics
    consumers = set()
    for name, buf in runtime.buffers.items():
        counts = buffers.get(name, Counter())
        at = {"buffer": name, "kind": buf.kind}
        gc = {"buffer": name, "gc": buf.collector}
        assert m.value("repro_buffer_puts_total", at) == counts["puts"]
        assert m.value("repro_gc_reclaimed_items_total", gc) == counts["frees"]
        assert m.value("repro_gc_reclaimed_bytes_total", gc) \
            == counts["freed_bytes"]
        assert m.value("repro_buffer_depth", at) \
            == counts["puts"] - counts["frees"]
        assert m.value("repro_buffer_bytes_held", at) \
            == counts["bytes"] - counts["freed_bytes"]
        for sample in m.snapshot():
            labels = sample["labels"]
            if sample["name"] == "repro_buffer_gets_total" \
                    and labels["buffer"] == name:
                consumer = labels["consumer"]
                consumers.add((name, consumer))
                assert sample["value"] == reads[name, consumer, "gets"]
                assert m.value("repro_buffer_skips_total",
                               {"buffer": name, "consumer": consumer}) \
                    == reads[name, consumer, "skips"]
    # Every consumer the trace saw reading is exported.
    assert {(b, c) for b, c, _ in reads} <= consumers


def last_set(values):
    """The last value that is not None (what a gauge holds), or None."""
    return next((v for v in reversed(values) if v is not None), None)


def assert_thread_series_match_the_trace(runtime):
    """Every thread the trace saw closing an iteration: its counts equal
    its iteration rows summed, its gauges its last STP row."""
    trace, m = runtime.recorder, runtime.obs.metrics
    rows, stps = {}, {}
    for it in trace.iterations:
        rows.setdefault(it.thread, []).append(it)
    for sample in trace.stp_samples:
        stps.setdefault(sample.thread, []).append(sample)
    exported = {s["labels"]["thread"] for s in m.snapshot()
                if s["name"] == "repro_iterations_total"}
    assert set(rows) <= exported
    for thread in exported:
        at = {"thread": thread}
        its = rows.get(thread, [])
        assert m.value("repro_iterations_total", at) == len(its)
        assert m.get("repro_iteration_seconds", at).count == len(its)
        # Summed per incarnation, then across: equal up to rounding.
        for series, field in (("repro_compute_seconds_total", "compute"),
                              ("repro_blocked_seconds_total", "blocked"),
                              ("repro_throttle_sleep_seconds_total", "slept")):
            assert m.value(series, at) == pytest.approx(
                sum(getattr(it, field) for it in its), rel=1e-12, abs=1e-12)
        samples = stps.get(thread, [])
        for series, field in (("repro_stp_current_seconds", "current_stp"),
                              ("repro_stp_summary_seconds", "summary"),
                              ("repro_throttle_target_seconds",
                               "throttle_target")):
            want = last_set([getattr(s, field) for s in samples])
            got = m.get(series, at)
            # An unwritten gauge is not exported.
            assert (got and got.value) == want


def assert_tenant_deliveries_match_the_trace(runtime):
    trace, m = runtime.recorder, runtime.obs.metrics
    for tenant in runtime.tenants.values():
        sinks = [name for name in runtime.graph.threads()
                 if name in tenant.threads and runtime.graph.is_sink(name)]
        assert sinks
        assert m.value("repro_tenant_deliveries_total",
                       {"tenant": tenant.name}) \
            == sum(trace.iteration_count(sink) for sink in sinks)


def assert_link_series_match_the_stats(runtime):
    m = runtime.obs.metrics
    links = runtime.network._links.values()
    for link in links:
        at = {"link": link.name}
        assert m.value("repro_link_transfer_bytes_total", at) \
            == link.bytes_transferred
        assert m.value("repro_link_transfers_total", at) == link.transfers
    assert sum(m.value("repro_link_transfer_bytes_total", {"link": l.name})
               for l in links) == runtime.stats()["network"]["total_bytes"]


def assert_runtime_series_match(runtime):
    assert_read_counts_match_the_trace(runtime)
    assert_thread_series_match_the_trace(runtime)
    assert_tenant_deliveries_match_the_trace(runtime)
    assert_link_series_match_the_stats(runtime)


def test_read_counters_equal_the_trace_across_the_lifecycle():
    cheap = scaled_tracker_config(0.1, frame_period=0.2, cv=0.0)
    cluster = uniform_spec(4, ncpus=16)
    runtime = TenantRuntime(
        TenancySpec(cluster=cluster, telemetry=True,
                    trace_rows=True).runtime_config(),
        Scheduler(cluster))
    tracker = Tenant(TenantSpec("t", app_config=cheap, policy="aru-max"))
    pool = Tenant(TenantSpec(
        "p", app=elastic_pipeline(ElasticConfig(replicas=2, max_replicas=4)),
        namespace="pool/"))
    for tenant in (tracker, pool):
        assert runtime.arrive(tenant) == "admitted"
    runtime.advance(1.0)
    assert_runtime_series_match(runtime)

    # A departure, then a readmission onto the drained buffers.
    runtime.revoke_tenant(tracker)
    runtime.advance(0.5)
    assert runtime.retry_queued() == 1 and tracker.state == RUNNING
    runtime.advance(1.0)
    # A thread restart and a replica retired by scale-in.
    runtime.restart_thread("t/target_detect1")
    assert runtime.scale_in(pool.stages[0]) == "pool/workers[1]"
    runtime.advance(1.0)
    runtime.depart_tenant(pool)
    runtime.advance(0.5)
    runtime.finalize()

    retired = {name: buf.retired_reads for name, buf in runtime.buffers.items()
               if buf.retired_reads}
    assert any("target_detect1" in thread
               for reads in retired.values() for thread in reads)
    assert any("workers[1]" in thread
               for reads in retired.values() for thread in reads)
    assert {"t/target_detect1", "pool/workers[1]", "t/gui"} \
        <= set(runtime.retired_threads)
    assert_runtime_series_match(runtime)

    # A scrape reads what the closes kept and never asks the control
    # stack: an outbound summary evicts stale backward-STP slots.
    def asked(*args):
        raise AssertionError("a scrape reached the control stack")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ThreadController, "outbound_summary", asked)
        patch.setattr(StpSensor, "read", asked)
        runtime.obs.snapshot()


def two_node_pipeline(telemetry=True):
    """A source on ``n0`` and a sink on ``n1`` whose gets cross the
    ``n0->n1`` link (9 ms a 100 KB item)."""
    def src(ctx):
        ts = 0
        while True:
            yield Sleep(0.01)
            yield Put("c", ts=ts, size=100_000)
            ts += 1
            yield PeriodicitySync()

    def dst(ctx):
        while True:
            yield Get("c")
            yield Compute(0.02)
            yield PeriodicitySync()

    g = TaskGraph()
    g.add_thread("src", src)
    g.add_thread("dst", dst, sink=True)
    g.add_channel("c")
    g.connect("src", "c").connect("c", "dst")
    cluster = ClusterSpec(nodes=(NodeSpec(name="n0"), NodeSpec(name="n1")),
                          link=LinkSpec(latency_s=1e-3, bandwidth_bps=10**8))
    return Runtime(g, RuntimeConfig(cluster=cluster, telemetry=telemetry,
                                    placement={"src": "n0", "dst": "n1"}))


def test_a_thread_killed_mid_transfer_keeps_its_link_and_thread_counts():
    runtime = two_node_pipeline()
    runtime.advance(0.5)
    link = runtime.network.link("n0", "n1")
    while not link._wire.in_use:
        runtime.advance(0.001)
    in_flight = link.transfers
    runtime.kill_thread("dst")  # its get's transfer is on the wire
    runtime.advance(0.2)
    bytes_at_kill = link.bytes_transferred
    # The transfer is an engine process of its own: it completes for
    # the dead thread, its bytes and its time both counted.
    hist = runtime.obs.metrics.get("repro_link_transfer_seconds",
                                   {"link": "n0->n1"})
    assert link.transfers == in_flight + 1 == hist.count
    runtime.restart_thread("dst")
    runtime.advance(0.5)
    runtime.finalize()
    assert link.bytes_transferred > bytes_at_kill
    assert "dst" in runtime.retired_threads
    assert_read_counts_match_the_trace(runtime)
    assert_thread_series_match_the_trace(runtime)
    assert_link_series_match_the_stats(runtime)


def test_a_thread_restarted_at_its_wake_up_keeps_its_last_close():
    # The restart fires first in the cohort at 1.5 s, the source's
    # sleep second: its kill lands only after the old incarnation has
    # closed one more iteration, on connections already unregistered.
    def src(ctx):
        ts = 0
        while True:
            yield Put("c", ts=ts, size=10)
            ts += 1
            yield Sleep(0.3)
            yield Sleep(0.2)  # scheduled at 1.3 s, after the restart's
            yield PeriodicitySync()

    def dst(ctx):
        while True:
            yield Get("c")
            yield Compute(0.01)
            yield PeriodicitySync()

    g = TaskGraph()
    g.add_thread("src", src)
    g.add_thread("dst", dst, sink=True)
    g.add_channel("c")
    g.connect("src", "c").connect("c", "dst")
    runtime = Runtime(g, RuntimeConfig(telemetry=True))

    def restart():
        yield runtime.engine.timeout(1.5)
        runtime.restart_thread("src")

    runtime.engine.process(restart())
    runtime.advance(3.0)
    runtime.finalize()
    assert [it.t_end for it in runtime.recorder.iterations_of("src")][:3] \
        == [0.5, 1.0, 1.5]
    assert runtime.retired_threads["src"].iterations == 3
    assert_thread_series_match_the_trace(runtime)


def test_metrics_off_registers_no_source_and_no_instrument():
    hub = TelemetryHub(TelemetryConfig(metrics=False, spans=True))
    runtime = two_node_pipeline(telemetry=hub)
    runtime.advance(0.5)
    assert hub.metrics.sources == []
    assert len(hub.metrics) == 0
    assert runtime.drivers["dst"]._iter_hist is None
    assert hub.tracer.recorded > 0


def test_tenant_deliveries_are_its_sink_iterations():
    cheap = scaled_tracker_config(0.1, frame_period=0.2, cv=0.0)
    cluster = uniform_spec(2, ncpus=16)
    runtime = TenantRuntime(
        TenancySpec(cluster=cluster, telemetry=True).runtime_config(),
        Scheduler(cluster))
    for name in ("t0", "t1"):
        runtime.arrive(Tenant(TenantSpec(name, app_config=cheap)))
    runtime.advance(2.0)
    m = runtime.obs.metrics
    assert m.value("repro_tenant_deliveries_total", {"tenant": "t0"}) \
        == runtime.recorder.iteration_count("t0/gui") > 0
    # Only a tenant's sink delivers: a run without tenants exports none.
    assert not any(s["name"] == "repro_tenant_deliveries_total"
                   for s in two_node_pipeline().obs.snapshot()["metrics"])
