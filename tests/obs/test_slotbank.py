"""The fixed-slot hot path: SlotBank, handles, and registry sync.

A pushed telemetry update goes to preresolved flat-array slots, not
through the dict-lookup instrument API: a site resolves its instruments
once at wiring time into indices, the hot-path update is one array add,
and label resolution / Metric materialisation is deferred to the first
read. These tests pin the bank's slot contract (reuse, kind-clash
detection, growth never invalidating handles), the handle semantics,
and the fidelity of the deferred materialisation — what ``snapshot()``
exports must be indistinguishable from having updated the instruments
directly. The counts a buffer keeps are read instead of pushed; the
depth test below is the one that reaches a buffer.
"""

import math

import pytest

from repro.errors import TelemetryError
from repro.obs.hub import (
    NULL_HUB,
    NullTelemetryHub,
    TelemetryConfig,
    TelemetryHub,
)
from repro.obs.metrics import (
    NOOP_HANDLE,
    CounterHandle,
    MetricsRegistry,
    NoopHandle,
    SlotBank,
)
from repro.cluster import Node, NodeSpec
from repro.metrics import TraceRecorder
from repro.runtime import Item, SQueue
from repro.sim import Engine, RngRegistry


class TestSlotContract:
    def test_same_identity_reuses_the_slot(self):
        bank = SlotBank()
        a = bank.counter_slot("x_total", {"k": "v"})
        b = bank.counter_slot("x_total", {"k": "v"})
        assert a == b
        assert len(bank.values) == 1

    def test_distinct_labels_get_distinct_slots(self):
        bank = SlotBank()
        a = bank.counter_slot("x_total", {"k": "1"})
        b = bank.counter_slot("x_total", {"k": "2"})
        assert a != b

    def test_kind_clash_is_a_loud_error(self):
        bank = SlotBank()
        bank.counter_slot("x_total")
        with pytest.raises(TelemetryError):
            bank.gauge_slot("x_total")

    def test_gauge_slot_starts_as_nan_sentinel(self):
        bank = SlotBank()
        slot = bank.gauge_slot("g")
        assert math.isnan(bank.values[slot])

    def test_growth_never_invalidates_existing_handles(self):
        # Handles hold the values *list object*, not a snapshot of it,
        # so creating hundreds of later slots must not stale them.
        bank = SlotBank()
        early = CounterHandle(bank.values, bank.counter_slot("early_total"))
        for i in range(300):
            bank.counter_slot(f"later_{i}_total")
        early.inc()
        early.inc()
        assert bank.values[bank.counter_slot("early_total")] == 2.0

    def test_histogram_block_layout(self):
        bank = SlotBank()
        slot = bank.histogram_slot("h_seconds", buckets=(0.1, 1.0))
        # Contiguous block: k finite buckets, +inf, sum, count.
        assert len(bank.values) - slot == 2 + 3


class TestHandles:
    def test_counter_handle_is_one_array_add(self):
        bank = SlotBank()
        slot = bank.counter_slot("c_total")
        h = CounterHandle(bank.values, slot)
        h.inc()
        h.inc(2.5)
        assert bank.values[slot] == 3.5

    def test_histogram_handle_boundary_is_value_le_bound(self):
        # Legacy Histogram.observe places value in the first bucket with
        # value <= bound; the bisect-based handle must match exactly.
        bank = SlotBank()
        h = bank.histogram_handle("h_seconds", buckets=(0.1, 1.0))
        for v in (0.1, 0.05, 1.0, 3.0):
            h.observe(v)
        block = bank.values[-5:]
        # 0.1 and 0.05 land in <=0.1; 1.0 lands in <=1.0; 3.0 overflows.
        assert block[:3] == [2.0, 1.0, 1.0]
        assert block[3] == pytest.approx(4.15)  # sum
        assert block[4] == 4.0                  # count

    def test_noop_handle_swallows_everything(self):
        for call in (NOOP_HANDLE.inc, lambda: NOOP_HANDLE.update(1, 2, 3)):
            assert call() is None
        assert isinstance(NOOP_HANDLE, NoopHandle)


class TestDeferredMaterialisation:
    def test_counter_snapshot_label_fidelity(self):
        reg = MetricsRegistry()
        slot = reg.bank.counter_slot(
            "repro_x_total", {"buffer": "cam", "kind": "channel"})
        reg.bank.values[slot] += 3.0
        (cell,) = reg.snapshot()
        assert cell["name"] == "repro_x_total"
        assert cell["labels"] == {"buffer": "cam", "kind": "channel"}
        assert cell["value"] == 3.0

    def test_unwritten_gauge_is_not_exported(self):
        reg = MetricsRegistry()
        slot = reg.bank.gauge_slot("repro_g")
        assert list(reg.collect()) == []
        reg.bank.values[slot] = 7.0
        (metric,) = reg.collect()
        assert metric.value == 7.0

    def test_empty_histogram_is_not_exported(self):
        reg = MetricsRegistry()
        h = reg.bank.histogram_handle("repro_h_seconds", buckets=(0.1,))
        assert list(reg.collect()) == []
        h.observe(0.05)
        (metric,) = reg.collect()
        assert metric.count == 1
        assert metric.bucket_counts == [1]

    def test_sync_is_idempotent_and_stamps_on_change_only(self):
        clock = [0.0]
        reg = MetricsRegistry(time_fn=lambda: clock[0])
        slot = reg.bank.counter_slot("c_total")
        reg.bank.values[slot] += 1.0
        clock[0] = 1.0
        stamp = reg.get("c_total").last_updated
        assert stamp == 1.0
        clock[0] = 2.0
        # Re-reading with no new updates must not touch the stamp.
        assert reg.get("c_total").last_updated == 1.0
        reg.bank.values[slot] += 1.0
        assert reg.get("c_total").last_updated == 2.0


class TestHubWiring:
    def test_handles_are_cached_per_site_identity(self):
        hub = TelemetryHub(TelemetryConfig(spans=False))
        assert hub.sync_handle("cam") is hub.sync_handle("cam")
        assert hub.sync_handle("cam") is not hub.sync_handle("det")

    def test_metrics_off_wires_noop_and_creates_no_instruments(self):
        hub = TelemetryHub(TelemetryConfig(metrics=False, spans=True))
        assert hub.transfer_handle("a->b") is NOOP_HANDLE
        assert hub.sync_handle("t0") is NOOP_HANDLE
        hub.read_buffers({"cam": object()})  # never read with metrics off
        assert len(hub.metrics.bank.values) == 0
        assert len(hub.metrics) == 0

    def test_null_hub_hands_out_noop_handles(self):
        assert isinstance(NULL_HUB, NullTelemetryHub)
        assert NULL_HUB.sync_handle("t0") is NOOP_HANDLE
        assert NULL_HUB.transfer_handle("a->b") is NOOP_HANDLE

    def test_depth_is_puts_minus_frees_at_export(self):
        # A queue's popped item has left the FIFO but is not freed until
        # released: depth and bytes held count it until then.
        hub = TelemetryHub(TelemetryConfig(spans=False))
        engine = Engine()
        node = Node(engine, NodeSpec(name="n0"), RngRegistry(seed=0))
        q = SQueue(engine, "cam", node, TraceRecorder(), obs=hub)
        hub.read_buffers({"cam": q})
        prod, cons = q.register_producer("p"), q.register_consumer("c")
        for ts in range(5):
            q.commit_put(prod, Item(ts=ts, size=100), 0.0)
        views = [q.commit_get(cons, None, 0.0) for _ in range(3)]
        for view in views[:2]:
            q.release(view._item, 0.0)
        labels = {"buffer": "cam", "kind": "queue"}
        assert len(q) == 2
        assert hub.metrics.value("repro_buffer_depth", labels) == 3.0
        assert hub.metrics.value("repro_buffer_bytes_held", labels) == 300.0
        assert hub.metrics.value("repro_gc_reclaimed_bytes_total",
                                 {"buffer": "cam", "gc": "queue"}) == 200.0

    def test_transfer_handle_updates_all_three_series(self):
        hub = TelemetryHub(TelemetryConfig(spans=False))
        h = hub.transfer_handle("a->b")
        h.update(1000, 0.004)
        h.update(500, 0.002)
        labels = {"link": "a->b"}
        reg = hub.metrics
        assert reg.value("repro_link_transfer_bytes_total", labels) == 1500.0
        assert reg.value("repro_link_transfers_total", labels) == 2.0
        hist = reg.get("repro_link_transfer_seconds", labels)
        assert hist.count == 2
        assert hist.total == pytest.approx(0.006)
