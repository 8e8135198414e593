"""Tests for the metrics registry: Counter/Gauge/Histogram + labels."""

import pytest

from repro.errors import TelemetryError
from repro.obs import MetricsRegistry
from repro.obs.metrics import DEFAULT_BUCKETS, canonical_labels


class TestCanonicalLabels:
    def test_sorted_tuple(self):
        assert canonical_labels({"b": "2", "a": "1"}) == (("a", "1"), ("b", "2"))

    def test_values_stringified(self):
        assert canonical_labels({"n": 3}) == (("n", "3"),)

    def test_empty(self):
        assert canonical_labels(None) == ()
        assert canonical_labels({}) == ()


class TestCounter:
    def test_starts_at_zero(self):
        c = MetricsRegistry().counter("hits")
        assert c.value == 0.0

    def test_inc_accumulates(self):
        c = MetricsRegistry().counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_inc_rejected(self):
        c = MetricsRegistry().counter("hits")
        with pytest.raises(TelemetryError, match="decrease"):
            c.inc(-1)

    def test_labels_partition_series(self):
        reg = MetricsRegistry()
        reg.counter("puts", {"buffer": "C1"}).inc()
        reg.counter("puts", {"buffer": "C2"}).inc(5)
        assert reg.value("puts", {"buffer": "C1"}) == 1.0
        assert reg.value("puts", {"buffer": "C2"}) == 5.0

    def test_same_labels_same_instance(self):
        reg = MetricsRegistry()
        a = reg.counter("puts", {"buffer": "C1"})
        b = reg.counter("puts", {"buffer": "C1"})
        assert a is b


class TestGauge:
    def test_gauge_can_go_negative(self):
        g = MetricsRegistry().gauge("depth")
        g.set(10)
        g.set(-3)
        assert g.value == -3.0


class TestHistogram:
    def test_observe_updates_sum_and_count(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(0.5)
        h.observe(1.5)
        assert h.count == 2
        assert h.total == 2.0
        assert h.mean == 1.0

    def test_cumulative_buckets_end_with_inf(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(99.0)
        assert h.cumulative() == [(1.0, 1), (2.0, 2), (float("inf"), 3)]

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(TelemetryError, match="sorted"):
            MetricsRegistry().histogram("lat", buckets=(2.0, 1.0))

    def test_empty_histogram_mean_zero(self):
        assert MetricsRegistry().histogram("lat").mean == 0.0


class TestRegistry:
    def test_type_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TelemetryError, match="already registered"):
            reg.gauge("x")

    def test_collect_is_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a", {"k": "2"})
        reg.counter("a", {"k": "1"})
        names = [(m.name, m.labels) for m in reg.collect()]
        assert names == [("a", (("k", "1"),)), ("a", (("k", "2"),)), ("b", ())]

    def test_get_missing_returns_none(self):
        assert MetricsRegistry().get("nope") is None

    def test_value_default_for_missing(self):
        assert MetricsRegistry().value("nope", default=7.0) == 7.0

    def test_len_counts_series_not_names(self):
        reg = MetricsRegistry()
        reg.counter("x", {"a": "1"})
        reg.counter("x", {"a": "2"})
        assert len(reg) == 2

    def test_samples_stamped_with_time_fn(self):
        now = [0.0]
        reg = MetricsRegistry(time_fn=lambda: now[0])
        c = reg.counter("hits")
        now[0] = 4.0
        c.inc()
        assert c.last_updated == 4.0

    def test_snapshot_roundtrips_to_plain_data(self):
        reg = MetricsRegistry()
        reg.counter("hits", {"k": "v"}).inc(2)
        reg.histogram("lat").observe(0.1)
        snap = reg.snapshot()
        assert isinstance(snap, list)
        byname = {s["name"]: s for s in snap}
        assert byname["hits"]["value"] == 2.0
        assert byname["hits"]["labels"] == {"k": "v"}
        assert byname["lat"]["count"] == 1
        assert byname["lat"]["buckets"][-1][0] == float("inf")
