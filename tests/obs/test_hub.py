"""Tests for the telemetry hub: null object, hooks, config, resolve_hub."""

import pickle

import pytest

from repro.errors import ConfigError
from repro.obs import (
    NULL_HUB,
    NullTelemetryHub,
    TelemetryConfig,
    TelemetryHub,
    resolve_hub,
)


class FakeItem:
    """Just the attributes the hub hooks read."""

    def __init__(self, item_id, ts=0, size=100, producer="p", parents=()):
        self.item_id = item_id
        self.ts = ts
        self.size = size
        self.producer = producer
        self.parents = tuple(parents)


# The hot sites drive the hub through a wiring-time handle plus a
# ``span_*`` helper behind ``spans_on``; these spell out, call for call,
# what ``Buffer._account_put`` / ``_account_get`` / ``_account_free``,
# ``Link.transfer`` and ``ThreadDriver._publish`` do.

def put(hub, buffer, kind, item, t):
    hub.put_handle(buffer, kind).add(1.0, item.size)
    if hub.spans_on:
        hub.span_put(buffer, item, t)


def get(hub, buffer, kind, item, consumer, t):
    hub.get_handle(buffer, kind, consumer).inc()
    if hub.spans_on:
        hub.span_get(item, consumer, t)


def free(hub, buffer, kind, item, t, collector):
    hub.free_handle(buffer, kind, collector).add(1.0, item.size)
    if hub.spans_on:
        hub.span_free(item, t)


def transfer(hub, link, nbytes, duration, t):
    hub.transfer_handle(link).update(nbytes, duration)
    if hub.spans_on:
        hub.span_transfer(link, nbytes, duration, t)


def sync(hub, thread, t_start, t_end, compute, blocked, slept, stp,
         summary, target):
    hub.sync_handle(thread).update(
        t_start, t_end, compute, blocked, slept, stp, summary, target)
    if hub.spans_on:
        hub.span_sync(thread, t_start, t_end, compute, blocked, slept,
                      stp, summary)


class TestNullHub:
    def test_disabled_and_falsy(self):
        assert NULL_HUB.enabled is False
        assert not NULL_HUB

    def test_is_a_shared_singleton(self):
        assert resolve_hub(None) is NULL_HUB
        assert resolve_hub(False) is NULL_HUB

    def test_hooks_are_noops(self):
        put(NULL_HUB, "C1", "channel", FakeItem(1), 0.0)
        sync(NULL_HUB, "t", 0, 1, 0.5, 0.1, 0.0, None, None, None)
        NULL_HUB.on_fault("injected", "thread_crash", "x", 1.0)
        NULL_HUB.on_finalize({}, 1.0)
        assert NULL_HUB.bind(time_fn=lambda: 0.0) is NULL_HUB

    def test_snapshot_shape(self):
        snap = NULL_HUB.snapshot()
        assert snap["enabled"] is False
        assert snap["metrics"] == []

    def test_no_instance_dict(self):
        # __slots__ = () — a stray attribute write on the shared
        # singleton must fail loudly, not leak global state.
        with pytest.raises(AttributeError):
            NullTelemetryHub().stray = 1


class TestConfig:
    def test_defaults(self):
        cfg = TelemetryConfig()
        assert cfg.enabled and cfg.metrics and cfg.spans
        assert cfg.span_sample == 1

    def test_bad_sample_rejected(self):
        with pytest.raises(ConfigError, match="span_sample"):
            TelemetryConfig(span_sample=0)

    def test_bad_max_spans_rejected(self):
        with pytest.raises(ConfigError, match="max_spans"):
            TelemetryConfig(max_spans=0)


class TestResolveHub:
    def test_true_builds_fresh_hub(self):
        a, b = resolve_hub(True), resolve_hub(True)
        assert a.enabled and b.enabled and a is not b

    def test_config_builds_hub(self):
        hub = resolve_hub(TelemetryConfig(span_sample=3))
        assert hub.tracer.sample == 3

    def test_disabled_config_is_null(self):
        assert resolve_hub(TelemetryConfig(enabled=False)) is NULL_HUB

    def test_existing_hub_passes_through(self):
        hub = TelemetryHub()
        assert resolve_hub(hub) is hub

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError, match="telemetry"):
            resolve_hub("yes please")


class TestHooks:
    def test_put_get_free_roundtrip(self):
        hub = TelemetryHub()
        item = FakeItem(1, ts=5, size=200)
        put(hub, "C1", "channel", item, t=1.0)
        get(hub, "C1", "channel", item, consumer="gui", t=2.0)
        free(hub, "C1", "channel", item, t=3.0, collector="dgc")
        m = hub.metrics
        assert m.value("repro_buffer_puts_total",
                       {"buffer": "C1", "kind": "channel"}) == 1
        assert m.value("repro_buffer_gets_total",
                       {"buffer": "C1", "kind": "channel",
                        "consumer": "gui"}) == 1
        assert m.value("repro_buffer_depth",
                       {"buffer": "C1", "kind": "channel"}) == 0
        assert m.value("repro_gc_reclaimed_bytes_total",
                       {"buffer": "C1", "gc": "dgc"}) == 200
        # item span was opened at put and closed at free
        span = hub.tracer.get(hub.tracer.item_span[1])
        assert span.t_start == 1.0 and span.t_end == 3.0

    def test_put_parents_link_spans(self):
        hub = TelemetryHub()
        parent = FakeItem(1)
        put(hub, "C1", "channel", parent, t=0.0)
        child = FakeItem(2, parents=(1,))
        put(hub, "C2", "channel", child, t=1.0)
        chain = hub.tracer.ancestry(2)
        assert [s.track for s in chain] == ["buffer/C2", "buffer/C1"]

    def test_sampling_skips_item_spans_but_not_counters(self):
        hub = TelemetryHub(TelemetryConfig(span_sample=2))
        put(hub, "C1", "channel", FakeItem(3), t=0.0)  # 3 % 2 != 0
        assert 3 not in hub.tracer.item_span
        assert hub.metrics.value(
            "repro_buffer_puts_total",
            {"buffer": "C1", "kind": "channel"}) == 1

    def test_on_sync_records_control_signals(self):
        hub = TelemetryHub()
        sync(hub, "digitizer", t_start=0.0, t_end=0.2, compute=0.1,
             blocked=0.05, slept=0.04, stp=0.1, summary=0.2, target=0.2)
        m = hub.metrics
        labels = {"thread": "digitizer"}
        assert m.value("repro_iterations_total", labels) == 1
        assert m.value("repro_throttle_sleep_seconds_total", labels) == 0.04
        assert m.value("repro_stp_summary_seconds", labels) == 0.2
        (span,) = hub.tracer.spans
        assert span.cat == "iteration"
        assert span.args["throttle_sleep"] == 0.04

    def test_on_transfer_span_covers_the_wire_time(self):
        hub = TelemetryHub()
        transfer(hub, "node0->node1", nbytes=1000, duration=0.5, t=2.0)
        (span,) = hub.tracer.spans
        assert span.t_start == 1.5 and span.t_end == 2.0
        assert hub.metrics.value("repro_link_transfer_bytes_total",
                                 {"link": "node0->node1"}) == 1000

    def test_on_fault_records_counter_and_instant(self):
        hub = TelemetryHub()
        hub.on_fault("injected", "thread_crash", "digitizer", t=5.0)
        assert hub.metrics.value(
            "repro_fault_events_total",
            {"phase": "injected", "kind": "thread_crash"}) == 1
        (inst,) = hub.tracer.instants
        assert inst.name == "injected:thread_crash"
        assert inst.track == "faults"

    def test_metrics_only_mode(self):
        hub = TelemetryHub(TelemetryConfig(spans=False))
        put(hub, "C1", "channel", FakeItem(2), t=0.0)
        hub.on_fault("injected", "x", "y", t=1.0)
        assert hub.tracer.recorded == 0
        assert len(hub.metrics) > 0

    def test_spans_only_mode(self):
        hub = TelemetryHub(TelemetryConfig(metrics=False))
        put(hub, "C1", "channel", FakeItem(2), t=0.0)
        assert len(hub.metrics) == 0
        assert hub.tracer.recorded > 0

    def test_finalize_flushes_and_stamps(self):
        hub = TelemetryHub()
        put(hub, "C1", "channel", FakeItem(2), t=0.0)
        hub.on_finalize({"engine": {"events_processed": 10, "now": 9.0}}, 9.0)
        assert hub.t_end == 9.0
        assert all(s.t_end is not None for s in hub.tracer.spans)
        assert hub.metrics.value("repro_engine_events_processed") == 10

    def test_bind_attaches_clock_and_meta(self):
        hub = TelemetryHub()
        assert hub.bind(time_fn=lambda: 7.0, run={"seed": 3}) is hub
        hub.metrics.counter("x").inc()
        assert hub.metrics.get("x").last_updated == 7.0
        assert hub.run_meta == {"seed": 3}

    def test_snapshot_is_plain_data(self):
        hub = TelemetryHub()
        put(hub, "C1", "channel", FakeItem(2), t=0.0)
        snap = hub.snapshot()
        assert snap["enabled"] is True
        assert isinstance(snap["metrics"], list)
        pickle.dumps(snap)  # sweep workers ship snapshots across processes


class TestTenantPath:
    def test_tenant_handle_counts_deliveries(self):
        hub = TelemetryHub()
        handle = hub.tenant_handle("t0")
        handle.inc()
        handle.inc()
        assert hub.metrics.value("repro_tenant_deliveries_total",
                                 {"tenant": "t0"}) == 2.0

    def test_tenant_handle_is_cached(self):
        hub = TelemetryHub()
        assert hub.tenant_handle("t0") is hub.tenant_handle("t0")
        assert hub.tenant_handle("t0") is not hub.tenant_handle("t1")

    def test_on_tenant_counts_lifecycle_phases(self):
        hub = TelemetryHub()
        hub.on_tenant("admitted", "t0", 0.0)
        hub.on_tenant("admitted", "t1", 0.0)
        hub.on_tenant("evicted", "t0", 3.0, detail="node0 died")
        assert hub.metrics.value("repro_tenant_events_total",
                                 {"phase": "admitted"}) == 2.0
        assert hub.metrics.value("repro_tenant_events_total",
                                 {"phase": "evicted"}) == 1.0

    def test_null_hub_tenant_hooks_are_noops(self):
        null = NullTelemetryHub()
        null.on_tenant("admitted", "t0", 0.0)
        handle = null.tenant_handle("t0")
        handle.inc()  # NOOP_HANDLE swallows it
