"""Tests for the telemetry hub: null object, hooks, config, resolve_hub."""

import pickle
from types import SimpleNamespace

import pytest

from repro.cluster import Node, NodeSpec
from repro.errors import ConfigError
from repro.gc import make_gc
from repro.metrics import TraceRecorder
from repro.obs import (
    NULL_HUB,
    NullTelemetryHub,
    TelemetryConfig,
    TelemetryHub,
    resolve_hub,
)
from repro.obs.hub import buffer_series, link_series, thread_series
from repro.runtime import Channel, Item
from repro.runtime.thread import ClosedCounts
from repro.sim import Engine, RngRegistry
from repro.vt import LATEST


class FakeItem:
    """Just the attributes the hub hooks read."""

    def __init__(self, item_id, ts=0, size=100, producer="p", parents=()):
        self.item_id = item_id
        self.ts = ts
        self.size = size
        self.producer = producer
        self.parents = tuple(parents)


# A buffer pushes only its spans (``put``), its counts are read:
# ``wired_channel`` is a real one. ``Link.transfer`` and
# ``ThreadDriver._publish`` push one histogram each, and the counts
# beside it are read from the link and the driver: ``transfer`` and
# ``close`` stand in for those, with the hub reading what they leave.

def put(hub, buffer, item, t):
    if hub.spans_on:
        hub.span_put(buffer, item, t)


def wired_channel(hub, name="C1"):
    """A channel whose counts ``hub`` reads, with one producer ``p`` and
    one consumer ``gui``."""
    engine = Engine()
    node = Node(engine, NodeSpec(name="n0"), RngRegistry(seed=0))
    channel = Channel(engine, name, node, TraceRecorder(), make_gc("dgc"),
                      obs=hub)
    hub.read(buffer_series, {name: channel})
    return (channel, channel.register_producer("p"),
            channel.register_consumer("gui"))


def transfer(hub, link, nbytes, duration, t):
    """One transfer over ``link``, as the hub sees it."""
    hub.read(link_series, {link: SimpleNamespace(
        name=link, bytes_transferred=nbytes, transfers=1)})
    hub.metrics.histogram("repro_link_transfer_seconds",
                          {"link": link}).observe(duration)
    if hub.spans_on:
        hub.span_transfer(link, nbytes, duration, t)


def close(hub, thread, t_start, t_end, compute, blocked, slept, stp,
          summary, target):
    """One iteration close of ``thread``, as the hub sees it."""
    counts = ClosedCounts(1, compute, blocked, slept, stp, summary, target,
                          None)
    driver = SimpleNamespace(closed_counts=lambda before=None: counts)
    hub.read(thread_series, {thread: driver}, {})
    hub.metrics.histogram("repro_iteration_seconds",
                          {"thread": thread}).observe(t_end - t_start)
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
        put(NULL_HUB, "C1", FakeItem(1), 0.0)
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
        channel, out, conn = wired_channel(hub)
        item = Item(ts=5, size=200, producer="p")
        channel.commit_put(out, item, 1.0)
        view = channel.commit_get(conn, LATEST, 2.0)
        channel.release(view._item, 3.0)
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
        span = hub.tracer.get(hub.tracer.item_span[item.item_id])
        assert span.t_start == 1.0 and span.t_end == 3.0

    def test_put_parents_link_spans(self):
        hub = TelemetryHub()
        parent = FakeItem(1)
        put(hub, "C1", parent, t=0.0)
        child = FakeItem(2, parents=(1,))
        put(hub, "C2", child, t=1.0)
        chain = hub.tracer.ancestry(2)
        assert [s.track for s in chain] == ["buffer/C2", "buffer/C1"]

    def test_sampling_skips_item_spans_but_not_counters(self):
        hub = TelemetryHub(TelemetryConfig(span_sample=2))
        channel, out, _ = wired_channel(hub)
        item = Item(ts=0, size=100)
        item.item_id = 3  # 3 % 2 != 0
        channel.commit_put(out, item, 0.0)
        assert 3 not in hub.tracer.item_span
        assert hub.metrics.value(
            "repro_buffer_puts_total",
            {"buffer": "C1", "kind": "channel"}) == 1

    def test_on_sync_records_control_signals(self):
        hub = TelemetryHub()
        close(hub, "digitizer", t_start=0.0, t_end=0.2, compute=0.1,
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
        put(hub, "C1", FakeItem(2), t=0.0)
        hub.on_fault("injected", "x", "y", t=1.0)
        assert hub.tracer.recorded == 0
        assert len(hub.metrics) > 0

    def test_spans_only_mode(self):
        hub = TelemetryHub(TelemetryConfig(metrics=False))
        wired_channel(hub)
        put(hub, "C1", FakeItem(2), t=0.0)
        assert len(hub.metrics) == 0
        assert hub.tracer.recorded > 0

    def test_finalize_flushes_and_stamps(self):
        hub = TelemetryHub()
        put(hub, "C1", FakeItem(2), t=0.0)
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
        wired_channel(hub)
        put(hub, "C1", FakeItem(2), t=0.0)
        snap = hub.snapshot()
        assert snap["enabled"] is True
        assert isinstance(snap["metrics"], list)
        pickle.dumps(snap)  # sweep workers ship snapshots across processes


class TestTenantPath:
    def test_tenant_handle_counts_deliveries(self):
        # A tenant's deliveries are its sink threads' iterations, summed
        # over its sinks; a thread that is no sink delivers nothing.
        def driver(iterations, tenant):
            counts = ClosedCounts(iterations, 0.0, 0.0, 0.0, None, None,
                                  None, tenant)
            return SimpleNamespace(closed_counts=lambda before=None: counts)

        hub = TelemetryHub()
        hub.read(thread_series, {"t0/gui": driver(2, "t0"),
                                 "t0/log": driver(3, "t0"),
                                 "t0/src": driver(9, None)}, {})
        assert hub.metrics.value("repro_tenant_deliveries_total",
                                 {"tenant": "t0"}) == 5.0

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
        null.on_arbiter("revoke", "t0", 0.0)
        assert null.snapshot()["metrics"] == []
