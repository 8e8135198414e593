"""A live run's telemetry is decided once, through ``resolve_hub``.

The ``proc`` launcher and each of its workers decide from the same spec
value with the same function: a disabled config makes the launcher wait
for no snapshot that no worker sends, and a metrics-off config exports
no counters. Tested as functions over unstarted runtimes: no worker
process and no task thread starts here.
"""

import pytest

from repro.dist.launcher import merged_telemetry
from repro.dist.result import merge_stats
from repro.obs import NULL_HUB, TelemetryConfig, resolve_hub
from repro.rt_threads.executor import ThreadedRuntime
from repro.runtime import Get, Put, TaskGraph

VALUES = [False, None, True, TelemetryConfig(),
          TelemetryConfig(enabled=False), TelemetryConfig(metrics=False),
          TelemetryConfig(spans=False)]


def _source(ctx):
    yield Put("c", ts=0, size=8)


def _sink(ctx):
    yield Get("c")


def worker_snapshot(telemetry):
    """What a worker's ``STATS`` frame carries for ``telemetry``, taken
    from a runtime that never started."""
    graph = TaskGraph("tiny")
    graph.add_thread("src", _source).add_thread("sink", _sink, sink=True)
    graph.add_channel("c").connect("src", "c").connect("c", "sink")
    runtime = ThreadedRuntime(graph, telemetry=telemetry)
    obs = runtime.obs
    if not obs.enabled:
        return None
    obs.on_finalize(runtime.stats(), runtime.clock.now())
    return obs.snapshot()


@pytest.mark.parametrize("telemetry", VALUES, ids=repr)
def test_launcher_and_workers_decide_alike(telemetry):
    enabled = resolve_hub(telemetry).enabled
    snapshots = [worker_snapshot(telemetry) for _ in range(2)]
    assert all((snap is not None) == enabled for snap in snapshots)
    hub = merged_telemetry(telemetry, snapshots)
    assert (hub is not NULL_HUB) == enabled


def test_a_disabled_config_merges_to_the_null_hub():
    # Used to raise "no enabled telemetry snapshots to merge" after every
    # worker had finished.
    off = TelemetryConfig(enabled=False)
    assert merged_telemetry(off, [worker_snapshot(off)] * 2) is NULL_HUB


def test_metrics_off_exports_no_counters():
    cfg = TelemetryConfig(metrics=False)
    hub = merged_telemetry(cfg, [worker_snapshot(cfg)] * 2)
    assert hub.enabled and len(hub.metrics) == 0


def test_a_live_hub_records_metrics_only():
    hub = worker_snapshot(TelemetryConfig())
    assert hub["spans"]["spans"] == 0
    names = {sample["name"] for sample in hub["metrics"]}
    assert {"repro_buffer_puts_total", "repro_buffer_gets_total",
            "repro_engine_events_processed"} <= names


def test_merged_run_totals_equal_the_merged_stats():
    # Each worker's hub holds its own share of the run's events and
    # network bytes; the merge took the largest share (27 events against
    # 99 in a 3 s config2 run), where merge_stats sums them.
    per_worker = []
    for node, events, sent, now in (("n0", 27, 32_290, 3.0),
                                    ("n1", 72, 53_048, 3.1)):
        per_worker.append({
            "engine": {"events_processed": events, "now": now},
            "nodes": {node: {"mem_peak": 10, "busy_time": 0.5}},
            "network": {"total_bytes": sent},
            "buffers": {}, "threads": {}})
    snapshots = []
    for stats in per_worker:
        hub = resolve_hub(True).bind(time_fn=lambda: 1.0, run={})
        hub.on_finalize(stats, stats["engine"]["now"])
        snapshots.append(hub.snapshot())
    merged = merged_telemetry(True, snapshots).metrics
    stats = merge_stats(per_worker)
    assert merged.value("repro_engine_events_processed") == \
        stats["engine"]["events_processed"] == 99
    assert merged.value("repro_network_bytes_total") == \
        stats["network"]["total_bytes"]
    assert merged.value("repro_sim_time_seconds") == stats["engine"]["now"]
    for node in ("n0", "n1"):
        assert merged.value("repro_node_mem_peak_bytes", {"node": node}) == 10
