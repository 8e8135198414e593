"""The buffer counts telemetry reads equal the trace's own counts.

A buffer's puts, gets, skips and frees are not pushed to the hub; it
reads the counts the buffer and its consumer connections keep when a
snapshot is taken. The :class:`~repro.metrics.recorder.TraceRecorder`
is an independent record of the same events, so every series must
agree with it — also after the connections that counted them are gone:
a revoked tenant's threads, a restarted thread's old incarnation and a
replica retired by scale-in.
"""

from collections import Counter

from repro.apps import ElasticConfig, elastic_pipeline
from repro.cluster.spec import uniform_spec
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
    assert_read_counts_match_the_trace(runtime)

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
    assert_read_counts_match_the_trace(runtime)
