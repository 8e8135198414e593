"""Series identity and deferred export of the counts telemetry reads.

Most ``repro_*`` series are not pushed: a source registered with
:meth:`~repro.obs.hub.TelemetryHub.read` yields ``(type, name, labels,
value)`` rows from counts the runtime keeps, and the registry folds
them into instruments whenever it is read. These tests pin that fold's
contract (one series per identity, a type clash is an error), what is
exported and when it is stamped, the bucket test of the two histograms
that are still pushed, and how the hub wires its sources. The module
keeps the name it had when the same claims were made of a fixed-slot
bank, so the test ids carry over.
"""

from types import SimpleNamespace

import pytest

from repro.cluster import LinkSpec, Network, Node, NodeSpec, config2_spec
from repro.errors import TelemetryError
from repro.metrics import TraceRecorder
from repro.obs.hub import (
    TelemetryConfig,
    TelemetryHub,
    buffer_series,
    thread_series,
)
from repro.obs.metrics import MetricsRegistry, canonical_labels
from repro.runtime import Item, SQueue
from repro.runtime.thread import ClosedCounts
from repro.sim import Engine, RngRegistry


def rows(*rows):
    """A source that yields ``rows`` at every read."""
    return lambda: iter(rows)


class TestSlotContract:
    def test_same_identity_reuses_the_slot(self):
        # Rows of one identity (two connections of one consumer) sum
        # into one series, the same instrument at every read.
        reg = MetricsRegistry()
        at = (("k", "v"),)
        reg.sources.append(rows(("counter", "x_total", at, 1),
                                ("counter", "x_total", at, 2)))
        first = reg.get("x_total", {"k": "v"})
        assert first.value == 3.0
        assert len(reg) == 1
        assert reg.get("x_total", {"k": "v"}) is first

    def test_distinct_labels_get_distinct_slots(self):
        reg = MetricsRegistry()
        reg.sources.append(rows(("counter", "x_total", (("k", "1"),), 1),
                                ("counter", "x_total", (("k", "2"),), 2)))
        assert reg.value("x_total", {"k": "1"}) == 1.0
        assert reg.value("x_total", {"k": "2"}) == 2.0
        assert len(reg) == 2

    def test_kind_clash_is_a_loud_error(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        reg.sources.append(rows(("gauge", "x_total", (), 1)))
        with pytest.raises(TelemetryError, match="already registered"):
            reg.snapshot()


class TestHandles:
    def test_histogram_handle_boundary_is_value_le_bound(self):
        # A pushed histogram finds its bucket by bisect: a value on a
        # bound lands in that bound's bucket.
        h = MetricsRegistry().histogram("h_seconds", buckets=(0.1, 1.0))
        for v in (0.1, 0.05, 1.0, 3.0):
            h.observe(v)
        # 0.1 and 0.05 land in <=0.1; 1.0 lands in <=1.0; 3.0 overflows.
        assert h.bucket_counts == [2, 1]
        assert h.inf_count == 1
        assert h.total == pytest.approx(4.15)
        assert h.count == 4


class TestDeferredMaterialisation:
    def test_counter_snapshot_label_fidelity(self):
        reg = MetricsRegistry()
        labels = canonical_labels({"buffer": "cam", "kind": "channel"})
        reg.sources.append(rows(("counter", "repro_x_total", labels, 3)))
        (cell,) = reg.snapshot()
        assert cell["type"] == "counter"
        assert cell["name"] == "repro_x_total"
        assert cell["labels"] == {"buffer": "cam", "kind": "channel"}
        assert cell["value"] == 3.0

    def test_unwritten_gauge_is_not_exported(self):
        # A thread's STP gauges are exported once it advertised a value.
        latest = [ClosedCounts(1, 0.1, 0.0, 0.0, None, None, None, None)]
        driver = SimpleNamespace(closed_counts=lambda before=None: latest[0])
        reg = TelemetryHub(TelemetryConfig(spans=False)).metrics
        reg.sources.append(lambda: thread_series({"t0": driver}, {}))
        at = {"thread": "t0"}
        assert reg.value("repro_iterations_total", at) == 1.0
        assert reg.get("repro_stp_current_seconds", at) is None
        latest[0] = latest[0]._replace(iterations=2, stp=0.25)
        assert reg.value("repro_stp_current_seconds", at) == 0.25
        assert reg.get("repro_stp_summary_seconds", at) is None

    def test_empty_histogram_is_not_exported(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_h_seconds", buckets=(0.1,))
        assert list(reg.collect()) == [] and len(reg) == 0
        h.observe(0.05)
        (metric,) = reg.collect()
        assert metric.count == 1
        assert metric.bucket_counts == [1]

    def test_sync_is_idempotent_and_stamps_on_change_only(self):
        clock, puts = [0.0], [1]
        reg = MetricsRegistry(time_fn=lambda: clock[0])
        reg.sources.append(lambda: iter([("counter", "c_total", (),
                                          puts[0])]))
        clock[0] = 1.0
        assert reg.get("c_total").last_updated == 1.0
        clock[0] = 2.0
        # Re-reading with no new counts must not touch the stamp.
        assert reg.get("c_total").last_updated == 1.0
        assert reg.value("c_total") == 1.0
        puts[0] = 2
        assert reg.get("c_total").last_updated == 2.0


class TestHubWiring:
    def test_metrics_off_wires_noop_and_creates_no_instruments(self):
        hub = TelemetryHub(TelemetryConfig(metrics=False, spans=True))
        network = Network(Engine(), config2_spec(), obs=hub)
        link = network.link("node0", "node1")
        hub.read(buffer_series, {"cam": object()})  # never read
        assert link._hist is None
        assert hub.metrics.sources == []
        assert len(hub.metrics) == 0

    def test_depth_is_puts_minus_frees_at_export(self):
        # A queue's popped item has left the FIFO but is not freed until
        # released: depth and bytes held count it until then.
        hub = TelemetryHub(TelemetryConfig(spans=False))
        engine = Engine()
        node = Node(engine, NodeSpec(name="n0"), RngRegistry(seed=0))
        q = SQueue(engine, "cam", node, TraceRecorder(), obs=hub)
        hub.read(buffer_series, {"cam": q})
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
        # A link's bytes and transfers are read from the link, its wire
        # time is pushed: 1 ms latency plus 1 µs a byte.
        hub = TelemetryHub(TelemetryConfig(spans=False))
        engine = Engine()
        link = LinkSpec(latency_s=0.001, bandwidth_bps=1_000_000)
        network = Network(engine, config2_spec(link=link), obs=hub)

        def sends():
            yield engine.process(network.transfer("node0", "node1", 1000))
            yield engine.process(network.transfer("node0", "node1", 500))

        engine.run_until_event(engine.process(sends()))
        labels = {"link": "node0->node1"}
        reg = hub.metrics
        assert reg.value("repro_link_transfer_bytes_total", labels) == 1500.0
        assert reg.value("repro_link_transfers_total", labels) == 2.0
        hist = reg.get("repro_link_transfer_seconds", labels)
        assert hist.count == 2
        assert hist.total == pytest.approx(0.002 + 0.0015)
